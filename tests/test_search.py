import itertools
import json
import math

import numpy as np
import pytest

import chmkit.eigen
import chmkit.search
import oracles
from chmkit import core
from chmkit.core import chm_residuals, dephase
from chmkit.eigen import ConvergenceError, Spectrum, eigenvalues
from chmkit.families import gen_fourier, gen_hermitian, gen_tao
from chmkit.search import (
    FTOL,
    SearchReport,
    _descend,
    _jacobian,
    _partition_table,
    _residual,
    _spectral_table,
    SearchTask,
    chm_gradient,
    gradient_check,
    matrix_to_phases,
    minimize,
    objective,
    parse_pattern,
    pattern_penalty,
    phases_to_matrix,
)
from chmkit.spectral import multiplicity_profile, verify_matrix

SQRT6 = math.sqrt(6.0)


def _residual_and_jacobian(theta, task):
    """r and its exact Jacobian at one point, as the descent builds them."""
    table = _spectral_table(task)
    r, stage = _residual(theta, task, table)
    return r, _jacobian(r, stage, task, table)


class TestPatternParsing:
    def test_plain_and_bracketed(self):
        assert parse_pattern("2,2,1,1") == ((2, 2, 1, 1), False)
        assert parse_pattern("[4,1,1]") == ((4, 1, 1), False)

    def test_non_hermitian_suffix(self):
        assert parse_pattern("[3,1,1,1]-non-hermitian") == ((3, 1, 1, 1), True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pattern("banana")

    def test_task_rejects_wrong_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            SearchTask(target="7", seed=0)
        with pytest.raises(ValueError, match="sums to"):
            SearchTask(target="[2,2,1]", seed=0)


class TestObjective:
    def test_fourier_phases_with_fourier_target(self):
        F = gen_fourier(6)
        task = SearchTask(target=Spectrum(np.linalg.eigvals(F)), seed=0)
        assert objective(matrix_to_phases(F), task) < 1e-12

    def test_tao_phases_on_matching_pattern(self):
        task = SearchTask(target="[2,2,1,1]", seed=0)
        assert objective(matrix_to_phases(gen_tao(1)), task) < 1e-12

    def test_tao_phases_on_wrong_pattern(self):
        task = SearchTask(target="[4,1,1]", seed=0)
        assert objective(matrix_to_phases(gen_tao(1)), task) > 0.1

    def test_phase_count_validated(self):
        task = SearchTask(target="[2,2,1,1]", seed=0)
        with pytest.raises(ValueError, match="phases"):
            objective(np.zeros(24), task)

    def test_round_trip_phases(self):
        S = gen_tao(1)
        assert np.max(np.abs(phases_to_matrix(matrix_to_phases(S)) - S)) < 1e-14

    def test_pattern_penalty_zero_iff_pattern_met(self):
        eigs = eigenvalues(gen_tao(1)).values
        assert pattern_penalty(eigs, (2, 2, 1, 1)) < 1e-12
        assert pattern_penalty(eigs, (4, 1, 1)) > 0.1
        assert pattern_penalty(eigs, (6,)) > 1.0

    @pytest.mark.parametrize("min_gap", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize(
        "pattern", [(4, 1, 1), (4, 2), (3, 3), (2, 2, 1, 1), (1,) * 6, (6,)]
    )
    def test_pattern_penalty_matches_enumeration(self, pattern, min_gap):
        rng = np.random.default_rng(31)
        for _ in range(3):
            eigs = np.linalg.eigvals(phases_to_matrix(rng.uniform(0, 2 * np.pi, 25)))
            expected = oracles.pattern_penalty_by_enumeration(eigs, pattern, 6, min_gap)
            got = pattern_penalty(eigs, pattern, 6, min_gap)
            assert got == pytest.approx(expected, rel=1e-12)


class TestPartitionTable:
    def test_keyed_on_pattern_and_size(self):
        a = _partition_table((4, 1, 1), 6)
        b = _partition_table((4, 1), 5)
        assert a.masks.shape == (15, 3, 6)  # 6!/(4! 1! 1!) / 2! for the equal singletons
        assert b.masks.shape == (5, 2, 5)
        assert _partition_table((4, 1, 1), 6) is a
        assert not a.masks.flags.writeable

    @staticmethod
    def _compositions(n):
        """Every ordered tuple of positive sizes summing to n."""
        if n == 0:
            yield ()
        for k in range(1, n + 1):
            for rest in TestPartitionTable._compositions(n - k):
                yield (k,) + rest

    @pytest.mark.parametrize("n", range(1, 8))
    def test_masks_match_dedup_enumeration(self, n):
        # every pattern, sorted or not (``pattern_penalty`` passes its
        # pattern as given): the same masks in the same order
        for pattern in self._compositions(n):
            expected = oracles.partition_masks_by_dedup(pattern, n)
            got = _partition_table(pattern, n).masks
            assert got.shape == expected.shape and np.array_equal(got, expected), pattern

    def test_lists_each_partition_once(self):
        # 12 singletons: one partition, without the 12! orderings
        assert _partition_table((1,) * 12, 12).masks.shape == (1, 12, 12)
        assert _partition_table((2, 2, 2), 6).masks.shape == (15, 3, 6)

    def test_cache_clear_leaves_reports_unchanged(self):
        task = SearchTask(target="[4,1,1]", restarts=1, max_iters=60, seed=2)
        before = minimize(task).to_json()
        _partition_table.cache_clear()
        assert minimize(task).to_json() == before


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            assert gradient_check(rng.uniform(0, 2 * np.pi, 25)) < 1e-5

    def test_vanishes_at_chm(self):
        g = chm_gradient(matrix_to_phases(gen_fourier(6)))
        assert np.linalg.norm(g) < 1e-8

    def test_perturbed_chm_nonzero_and_consistent(self):
        rng = np.random.default_rng(15)
        phases = matrix_to_phases(gen_fourier(6)) + 1e-3 * rng.standard_normal(25)
        assert np.linalg.norm(chm_gradient(phases)) > 1e-6
        assert gradient_check(phases) < 1e-5


class TestPolishJacobian:
    @staticmethod
    def _central_differences(theta, task, h=1e-6):
        cols = []
        for k in range(theta.size):
            bump = np.zeros_like(theta)
            bump[k] = h
            rp, _ = _residual_and_jacobian(theta + bump, task)
            rm, _ = _residual_and_jacobian(theta - bump, task)
            cols.append((rp - rm) / (2.0 * h))
        return np.column_stack(cols)

    @staticmethod
    def _task_and_points(target):
        """The task for a test id, and three phase points to test it at."""
        rng = np.random.default_rng(21)
        target, _, gap = target.partition("-gap")
        if target == "spectrum":
            target = Spectrum(np.linalg.eigvals(phases_to_matrix(rng.uniform(0, 2 * np.pi, 25))))
        task = SearchTask(target=target, seed=0, min_cluster_gap=float(gap or 0.5))
        if task.non_hermitian:
            # near the Hermitian family, so that the barrier row is active
            base = matrix_to_phases(dephase(gen_hermitian(2.9))[0])
            return task, [base + 1e-3 * rng.standard_normal(25) for _ in range(3)]
        return task, [rng.uniform(0, 2 * np.pi, 25) for _ in range(3)]

    @staticmethod
    def _objective_by_parts(theta, task):
        """||H H^dag - 6 I||_F^2 + spectral penalty (+ barrier), summed here
        from numpy's eigenvalues without any of the search's code."""
        H = phases_to_matrix(theta)
        total = np.sum(np.abs(H @ H.conj().T - 6.0 * np.eye(6)) ** 2)
        eigs = np.linalg.eigvals(H)
        if isinstance(task.target, Spectrum):
            ref = task.target.values
            total += min(np.sum(np.abs(eigs[list(perm)] - ref) ** 2)
                         for perm in itertools.permutations(range(6)))
        else:
            total += oracles.pattern_penalty_by_enumeration(
                eigs, task.target, 6, task.min_cluster_gap)
        if task.non_hermitian:
            total += max(0.1 - np.sum(np.abs(H - H.conj().T) ** 2), 0.0) ** 2
        return total

    @pytest.mark.parametrize(
        "target",
        ["[4,1,1]", "[2,2,1,1]", "[3,2,1]", "spectrum", "[4,1,1]-gap5",
         "[3,1,1,1]-non-hermitian"],
    )
    def test_matches_central_differences(self, target):
        task, points = self._task_and_points(target)
        # near the Hermitian family eigenvalues nearly coincide, the residual
        # curves on a scale of their spacing (~1e-3), and the difference step
        # must be smaller to resolve its slope
        h = 1e-7 if task.non_hermitian else 1e-6
        for theta in points:
            _, J = _residual_and_jacobian(theta, task)
            Jf = self._central_differences(theta, task, h)
            assert J.shape == Jf.shape and J.shape[1] == 25
            assert np.max(np.abs(J - Jf)) <= 1e-6 * np.max(np.abs(J))

    @pytest.mark.parametrize(
        "target",
        ["[4,1,1]", "[4,1,1]-gap0", "[4,1,1]-gap5", "[2,2,1,1]", "[3,2,1]", "spectrum",
         "[3,1,1,1]-non-hermitian"],
    )
    def test_squared_norm_is_the_objective(self, target):
        task, points = self._task_and_points(target)
        for theta in points:
            r, _ = _residual_and_jacobian(theta, task)
            assert float(r @ r) == pytest.approx(self._objective_by_parts(theta, task), rel=1e-12)
        if task.non_hermitian:
            H = phases_to_matrix(points[0])
            assert float(np.sum(np.abs(H - H.conj().T) ** 2)) < 0.1  # barrier row active

    def test_residual_length_depends_only_on_the_task(self):
        # [4,1,1] has three block pairs, so three hinge rows; at the test's
        # points the chosen partition's block means are all farther apart
        # than 0.5, and some pair of them is closer than 5
        lengths, near_seen = set(), False
        for target in ("[4,1,1]", "[4,1,1]-gap5"):
            task, points = self._task_and_points(target)
            for theta in points:
                r, J = _residual_and_jacobian(theta, task)
                lengths.add(r.size)
                hinge, dhinge = r[-3:], J[-3:]
                if task.min_cluster_gap == 0.5:
                    assert np.all(hinge == 0.0)
                else:
                    near_seen |= bool(np.any(hinge > 0.0))
                # a pair that is far enough apart has a zero row in J as well
                assert np.all(dhinge[hinge == 0.0] == 0.0)
        assert near_seen
        assert lengths == {72 + 12 + 3 + 3}

    @pytest.mark.parametrize(
        "target", ["[4,1,1]", "[3,2,1]", "spectrum", "[3,1,1,1]-non-hermitian"]
    )
    def test_objective_skips_the_jacobian(self, target, monkeypatch):
        task, points = self._task_and_points(target)
        expected = []
        for theta in points:
            r, _ = _residual_and_jacobian(theta, task)
            expected.append(float(r @ r))

        def fail(*args, **kwargs):
            raise AssertionError("objective() builds the Jacobian")

        monkeypatch.setattr(np.linalg, "inv", fail)
        assert [objective(theta, task) for theta in points] == expected


class TestFirstFormOracle:
    """The residual and Jacobian are built in place from cached index tables;
    they must equal their first form in ``oracles`` (a 4-D unitarity array,
    every block stacked with ``np.vstack``) bit for bit, and so must the
    descent, which skips the Jacobian of a restart's last step."""

    PATTERNS = [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1), (2, 2, 2),
                (2, 2, 1, 1), (2, 1, 1, 1, 1), (1,) * 6]
    POINTS = np.random.default_rng(61).uniform(0, 2 * np.pi, (4, 25))

    @staticmethod
    def _assert_bitwise_equal(theta, task):
        r, J = _residual_and_jacobian(theta, task)
        r_o, J_o = oracles.residual_and_jacobian_stacked(theta, task)
        assert np.array_equal(r, r_o)
        assert J.shape == J_o.shape and np.array_equal(J, J_o)
        return r

    @pytest.mark.parametrize("gap", [0.0, 0.5, 1.5, 5.0])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_pattern_rows(self, pattern, gap):
        task = SearchTask(target=pattern, seed=0, min_cluster_gap=gap)
        for theta in self.POINTS:
            self._assert_bitwise_equal(theta, task)

    def test_hinge_rows_are_none_some_and_all_active(self):
        # the hinge rows' Jacobian is built only when some pair is nearer than
        # the gap; test_pattern_rows meets no such pair, some and every one
        seen = set()
        for gap, pattern in itertools.product((0.5, 1.5, 5.0), self.PATTERNS[1:]):
            pairs = len(pattern) * (len(pattern) - 1) // 2
            task = SearchTask(target=pattern, seed=0, min_cluster_gap=gap)
            for theta in self.POINTS:
                r, _ = _residual_and_jacobian(theta, task)
                active = np.count_nonzero(r[r.size - pairs:])
                seen.add("none" if active == 0 else "all" if active == pairs else "some")
        assert seen == {"none", "some", "all"}

    def test_spectrum_target(self):
        rng = np.random.default_rng(62)
        target = Spectrum(np.linalg.eigvals(phases_to_matrix(rng.uniform(0, 2 * np.pi, 25))))
        task = SearchTask(target=target, seed=0)
        for _ in range(4):
            self._assert_bitwise_equal(rng.uniform(0, 2 * np.pi, 25), task)

    def test_non_hermitian_near_the_hermitian_family(self):
        rng = np.random.default_rng(63)
        task = SearchTask(target="[3,1,1,1]-non-hermitian", seed=0)
        base = matrix_to_phases(dephase(gen_hermitian(2.9))[0])
        for _ in range(4):
            r = self._assert_bitwise_equal(base + 1e-3 * rng.standard_normal(25), task)
            assert r[-1] > 0.0  # barrier row active

    @pytest.mark.parametrize(
        "target, seed, max_iters, stop",
        [("[4,1,1]", 0, 10, "max_iters"), ("[4,1,1]", 0, 5000, "ftol"),
         ("[2,2,1,1]", 2, 5000, "converged"), ("[3,1,1,1]-non-hermitian", 3, 20, "max_iters")],
    )
    def test_descent(self, target, seed, max_iters, stop):
        task = SearchTask(target=target, seed=seed, max_iters=max_iters)
        theta0 = np.random.default_rng([seed, 0]).uniform(0.0, 2.0 * math.pi, 25)
        rows = []
        theta, f, steps = _descend(theta0, task, _spectral_table(task), rows, 0)
        theta_o, f_o, rows_o = oracles.descend_every_jacobian(theta0, task)
        assert np.array_equal(theta, theta_o) and f == f_o
        assert [(step, value) for _, step, value in rows] == rows_o
        assert steps == len(rows_o)
        if stop == "max_iters":
            assert steps == max_iters
        elif stop == "ftol":
            assert steps < max_iters and rows_o[-2][1] - f <= FTOL * f
        else:
            assert f < 1e-24


class TestMinimize:
    def test_finds_tao_type_pattern(self):
        task = SearchTask(target="[2,2,1,1]", restarts=20, max_iters=3000, seed=1)
        report = minimize(task)
        assert report.found
        assert report.best_residual < 1e-8
        # soundness gate: the reported matrix really is a CHM of the right shape
        H = report.best_matrix
        assert chm_residuals(H, tol=1e-8).is_chm
        assert tuple(multiplicity_profile(eigenvalues(H), cluster_tol=1e-6)) == (2, 2, 1, 1)

    def test_deterministic_reports(self):
        task = SearchTask(target="[2,2,1,1]", restarts=3, max_iters=400, seed=9)
        a, b = minimize(task), minimize(task)
        assert a.to_json() == b.to_json()
        assert np.array_equal(a.best_phases, b.best_phases)

    def test_impossible_pattern_short_budget(self):
        task = SearchTask(target="[4,1,1]", restarts=2, max_iters=150, seed=4)
        report = minimize(task)
        assert not report.found
        assert report.best_residual > 1e-2

    def test_min_cluster_gap_changes_the_search(self):
        def best(gap):
            task = SearchTask(target="[4,1,1]", restarts=2, seed=3, min_cluster_gap=gap)
            return minimize(task).best_residual

        assert best(0.0) != best(5.0)

    def test_trace_rows_stream(self):
        rows = []
        task = SearchTask(target="[2,2,1,1]", restarts=1, max_iters=50, seed=2)
        minimize(task, trace_rows=rows)
        assert rows
        restarts, iters, residuals = zip(*rows)
        assert set(restarts) == {0}
        assert list(iters) == sorted(iters)
        assert all(np.isfinite(residuals))

    def test_non_hermitian_barrier_is_enforced(self):
        # tiny budget: just exercise the code path and the qualification gate
        task = SearchTask(target="[3,1,1,1]-non-hermitian", restarts=1, max_iters=60, seed=3)
        assert task.non_hermitian
        report = minimize(task)
        if report.found:  # pragma: no cover - not expected at this budget
            H = report.best_matrix
            assert float(np.sum(np.abs(H - H.conj().T) ** 2)) >= 0.1

    def test_report_json_round_trip(self):
        task = SearchTask(target="[2,2,1,1]", restarts=1, max_iters=60, seed=5)
        report = minimize(task)
        again = SearchReport.from_json(report.to_json())
        assert again.best_residual == report.best_residual
        assert np.array_equal(again.best_phases, np.array(report.best_phases))
        assert again.verdict == report.verdict
        assert [t.final_residual for t in again.traces] == [
            t.final_residual for t in report.traces
        ]

    def test_report_wire_format(self):
        report = minimize(SearchTask(target="[2,2,1,1]", restarts=2, max_iters=60, seed=5))
        d = json.loads(report.to_json())
        assert list(d) == ["task", "best_residual", "verdict", "found_restart", "best_phases",
                           "best_matrix", "best_spectrum", "trace", "conflict"]
        assert list(d["task"]) == ["target", "n", "restarts", "max_iters", "seed", "tol_success",
                                   "min_cluster_gap", "non_hermitian", "stop_on_success"]
        assert d["task"]["target"] == {"pattern": [2, 2, 1, 1]}
        assert d["trace"] == [[t.restart, t.seed, t.final_residual, t.iterations]
                              for t in report.traces]
        assert list(d["best_matrix"]) == ["n", "re", "im"]
        assert d["best_spectrum"] == [[v.real, v.imag] for v in report.best_spectrum.values]
        assert d["conflict"] is None

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["best_matrix"]["re"][0].__setitem__(0, math.nan),
            lambda d: d["best_matrix"].__setitem__("n", 5),
            lambda d: d["best_matrix"].pop("im"),
            lambda d: d.__setitem__("best_matrix", [[1.0]]),
        ],
        ids=["nan-entry", "n-disagrees-with-rows", "missing-im", "not-an-object"],
    )
    def test_report_from_json_validates_best_matrix(self, edit):
        report = minimize(SearchTask(target="[2,2,1,1]", restarts=1, max_iters=20, seed=5))
        d = json.loads(report.to_json())
        edit(d)
        with pytest.raises(ValueError):
            SearchReport.from_json(json.dumps(d))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.__setitem__("best_phases", [math.nan] * 3),
            lambda d: d.__setitem__("best_phases", d["best_phases"][:-1]),
            lambda d: d["best_phases"].__setitem__(4, math.inf),
            lambda d: d["best_phases"].__setitem__(0, "0.5"),
            lambda d: d.__setitem__("best_phases", 0.5),
            lambda d: d.__setitem__("best_spectrum", d["best_spectrum"][:1]),
            lambda d: d["best_spectrum"].append([0.0, 0.0]),
            lambda d: d["best_spectrum"].__setitem__(0, [1.0]),
            lambda d: d["trace"].__setitem__(0, d["trace"][0][:3]),
            lambda d: d["trace"].__setitem__(0, d["trace"][0] + [1]),
            lambda d: d["trace"][0].__setitem__(2, None),
            lambda d: d["trace"].__setitem__(0, 7),
        ],
        ids=["three-nan-phases", "one-phase-short", "infinite-phase", "string-phase",
             "phases-not-a-list", "one-value-spectrum", "seven-value-spectrum", "short-pair",
             "three-element-trace-row", "five-element-trace-row", "null-in-trace-row",
             "trace-row-not-a-list"],
    )
    def test_report_from_json_validates_phases_spectrum_and_trace(self, edit):
        report = minimize(SearchTask(target="[2,2,1,1]", restarts=1, max_iters=20, seed=5))
        d = json.loads(report.to_json())
        assert len(d["best_phases"]) == 25 and len(d["best_spectrum"]) == 6
        edit(d)
        with pytest.raises(ValueError):
            SearchReport.from_json(json.dumps(d))

    def test_report_from_json_rejects_a_matrix_of_another_size(self):
        report = minimize(SearchTask(target="[2,2,1,1]", restarts=1, max_iters=20, seed=5))
        d = json.loads(report.to_json())
        d["best_matrix"] = json.loads(core.matrix_to_json(np.eye(5)))
        with pytest.raises(ValueError, match="n is 6"):
            SearchReport.from_json(json.dumps(d))


class TestGateSpectrum:
    def test_found_report_reuses_the_gates_spectrum(self, monkeypatch):
        solved = []
        schur = chmkit.eigen._schur

        def recorded(H, vectors, *norm_h):
            solved.append(H.copy())
            return schur(H, vectors, *norm_h)

        monkeypatch.setattr(chmkit.eigen, "_schur", recorded)
        report = minimize(SearchTask(target="[2,2,1,1]", restarts=3, seed=2))
        assert report.found
        # the soundness gate solved the found matrix once; minimize did not
        # solve it again.  The solver sees it scaled by a power of two, and
        # its (0, 0) entry is 1
        assert len(solved) == 1
        assert np.array_equal(solved[0] / solved[0][0, 0], report.best_matrix)
        gate = verify_matrix(report.best_matrix, 1e-8)
        assert np.array_equal(report.best_spectrum.values, gate.spectrum.values)


class TestOneResidual:
    def test_descent_does_not_call_objective(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the descent evaluates the residual, not objective()")

        monkeypatch.setattr(chmkit.search, "objective", fail)
        assert minimize(SearchTask(target="[2,2,1,1]", seed=11)).found

    def test_linalg_error_in_a_trial_is_a_rejected_trial(self, monkeypatch):
        task = SearchTask(target="[2,2,1,1]", restarts=1, max_iters=50, seed=2)
        calls = []

        def flaky(theta, *args):
            calls.append(theta)
            if len(calls) == 3:  # the second trial step of the restart
                raise np.linalg.LinAlgError("Singular matrix")
            return _residual(theta, *args)

        monkeypatch.setattr(chmkit.search, "_residual", flaky)
        report = minimize(task)
        assert len(calls) > 3
        assert report.traces[0].iterations >= 2
        # the rejected trial raised the damping, so the next trial is a new point
        assert not np.array_equal(calls[2], calls[3])

    def test_linalg_error_in_an_improving_trials_jacobian_rejects_it(self, monkeypatch):
        task = SearchTask(target="[2,2,1,1]", restarts=1, max_iters=50, seed=2)
        trials, jacobians = [], []

        def record(theta, *args):
            trials.append(theta)
            return _residual(theta, *args)

        def flaky(*args):
            jacobians.append(len(trials))
            if len(jacobians) == 2:  # the first trial that lowers the objective
                raise np.linalg.LinAlgError("Singular matrix")
            return _jacobian(*args)

        monkeypatch.setattr(chmkit.search, "_residual", record)
        monkeypatch.setattr(chmkit.search, "_jacobian", flaky)
        report = minimize(task)
        assert report.traces[0].iterations >= 1
        # no step was taken before it, so the next trial starts from the same
        # point with ten times the damping: a shorter step
        start, failed, after = trials[0], trials[jacobians[1] - 1], trials[jacobians[1]]
        assert np.linalg.norm(after - start) < np.linalg.norm(failed - start)

    def test_jacobian_only_for_taken_steps(self, monkeypatch):
        counts = {"_residual": 0, "_jacobian": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(chmkit.search, "_residual", counted("_residual", _residual))
        monkeypatch.setattr(chmkit.search, "_jacobian", counted("_jacobian", _jacobian))
        rows = []
        report = minimize(SearchTask(target="[4,1,1]", restarts=1, seed=0), trace_rows=rows)
        # this restart ends on FTOL, a step that lowers f by little
        assert rows[-2][2] - rows[-1][2] <= FTOL * rows[-1][2]
        # one Jacobian at the start point and one per step taken but the
        # last, which ends the restart; rejected trials cost a residual only
        assert counts["_jacobian"] == report.traces[0].iterations
        assert counts["_residual"] > counts["_jacobian"]


class TestConvergenceError:
    @staticmethod
    def _fail(*args, **kwargs):
        raise ConvergenceError("QR iteration did not converge")

    def test_minimize_reports_instead_of_raising(self, monkeypatch):
        task = SearchTask(target="[2,2,1,1]", restarts=2, seed=5)
        assert minimize(task).found
        monkeypatch.setattr(chmkit.eigen, "_schur", self._fail)
        report = minimize(task)
        # the soundness gate could not solve for the spectrum, so no verdict
        # of "found"; a not-found report's spectrum is numpy's in any case
        assert not report.found
        fallback = Spectrum(np.linalg.eigvals(report.best_matrix))
        assert np.array_equal(report.best_spectrum.values, fallback.values)


class TestTaskValidation:
    def test_json_round_trip(self):
        task = SearchTask(target="[4,2]", restarts=7, max_iters=123, seed=42,
                          min_cluster_gap=0.25, non_hermitian=True)
        again = SearchTask.from_json(task.to_json())
        assert again == task

    #: ``SearchTask(target="[2,2,1,1]").to_json()`` as written before the
    #: objective weights were removed
    SAVED_DEFAULT_TASK = (
        '{"n": 6, "target": {"pattern": [2, 2, 1, 1]}, "restarts": 50, "max_iters": 5000,'
        ' "seed": 0, "tol_success": 1e-08, "w_chm": 1.0, "w_spec": 1.0,'
        ' "min_cluster_gap": 0.5, "non_hermitian": false, "stop_on_success": true}'
    )

    def test_saved_task_still_loads(self):
        task = SearchTask(target="[2,2,1,1]")
        assert SearchTask.from_json(self.SAVED_DEFAULT_TASK) == task
        saved = json.loads(self.SAVED_DEFAULT_TASK)
        del saved["w_chm"], saved["w_spec"]
        assert json.loads(task.to_json()) == saved

    def test_spectrum_target_round_trip(self):
        spec = eigenvalues(gen_tao(1))
        task = SearchTask(target=spec, restarts=2, seed=1)
        again = SearchTask.from_json(task.to_json())
        assert np.max(np.abs(again.target.values - spec.values)) < 1e-16

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            SearchTask(target="[2,2,1,1]", seed=0, restarts=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", "1"),
        ("max_iters", -1),
        ("tol_success", math.nan), ("tol_success", math.inf), ("tol_success", -1e-8),
        ("min_cluster_gap", math.nan), ("min_cluster_gap", math.inf), ("min_cluster_gap", -0.5),
    ])
    def test_rejects_what_minimize_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchTask(target="[2,2,1,1]", **{field: value})

    def test_accepts_the_edges(self):
        task = SearchTask(target="[2,2,1,1]", seed=np.int64(0), max_iters=0,
                          tol_success=0.0, min_cluster_gap=0.0)
        assert task.max_iters == 0 and task.seed == 0

    def test_rejects_a_spectrum_target_above_eight(self):
        # each residual would pair the spectra over all n! permutations
        spec = eigenvalues(gen_fourier(9))
        with pytest.raises(core.DimensionError, match="n <= 8"):
            SearchTask(target=spec, n=9)
        SearchTask(target=eigenvalues(gen_fourier(8)), n=8)
