import itertools
import json
import math

import numpy as np
import pytest

import chmkit.eigen
import chmkit.search
import oracles
from chmkit.core import chm_residuals
from chmkit.eigen import ConvergenceError, Spectrum, eigenvalues, spectrum_distance
from chmkit.families import gen_fourier, gen_tao
from chmkit.search import (
    FTOL,
    SearchTask,
    _descend,
    _jacobian,
    _pattern_placements,
    _placements,
    _residual,
    _secant_update,
    _start,
    _step,
    chm_gradient,
    gradient_check,
    matrix_to_phases,
    minimize,
    parse_pattern,
    phases_to_matrix,
)
from chmkit.spectral import multiplicity_profile, verify_matrix

SQRT6 = math.sqrt(6.0)


def _bits(x) -> bytes:
    """The float64 bytes of a number or nested list of numbers, for bit-for-bit checks."""
    return np.asarray(x, dtype=np.float64).tobytes()


def _task(target: str, **fields) -> SearchTask:
    """The task of a test id: a pattern, ``spectrum`` for Tao's spectrum (two
    double values), and an optional ``-gap<g>`` suffix for ``min_cluster_gap``."""
    target, _, gap = target.partition("-gap")
    if target == "spectrum":
        target = eigenvalues(gen_tao(1))
    return SearchTask(target=target, min_cluster_gap=float(gap or 0.5), **fields)


def _coordinates(H: np.ndarray, lam: list) -> np.ndarray:
    """Y with Y diag(lam) Y^dag = H[1:, 1:] + 1/(n - 1), for a dephased CHM H
    whose spectrum is +-sqrt(n) and ``lam``: for each distinct value c of
    lam, an orthonormal basis (from an SVD) of the null space of that matrix
    minus c I, in lam's positions of c."""
    n = H.shape[0]
    M = H[1:, 1:] + 1.0 / (n - 1)
    Y = np.zeros((n - 1, len(lam)), dtype=np.complex128)
    for c in dict.fromkeys(lam):
        at = [k for k, v in enumerate(lam) if v == c]
        Y[:, at] = np.linalg.svd(M - c * np.eye(n - 1))[2][-len(at):].conj().T
    return Y


def _tao_coordinates():
    """The placement (1, 1, (2, 2)) of [2,2,1,1], the free angles of Tao's two
    double eigenvalues, Lam and Tao's Y in that placement."""
    placement = _placements(SearchTask(target="[2,2,1,1]"))[-1]
    values = eigenvalues(gen_tao(1)).values
    phi = np.angle([values[values.imag > 1.0].mean(), values[values.imag < -1.0].mean()])
    lam = (placement.free @ (SQRT6 * np.exp(1j * phi))).tolist()
    return placement, phi, lam, _coordinates(gen_tao(1), lam)


def _haar(rng, m: int) -> np.ndarray:
    """A Haar-random m x m unitary."""
    Q, R = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


class TestPatternParsing:
    def test_plain_and_bracketed(self):
        assert parse_pattern("2,2,1,1") == ((2, 2, 1, 1), False)
        assert parse_pattern("[4,1,1]") == ((4, 1, 1), False)

    def test_non_hermitian_suffix(self):
        assert parse_pattern("[3,1,1,1]-non-hermitian") == ((3, 1, 1, 1), True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_pattern("banana")

    def test_task_size_is_the_targets(self):
        assert SearchTask(target="[3,1]").n == 4
        assert SearchTask(target="7", seed=0).n == 7
        spec = eigenvalues(gen_fourier(5))
        assert SearchTask(target=spec).n == spec.n == 5

    def test_task_takes_no_n(self):
        with pytest.raises(TypeError):
            SearchTask(target="[2,2,1,1]", n=6)

    def test_task_rejects_a_target_below_two(self):
        with pytest.raises(ValueError, match="n must be"):
            SearchTask(target="[1]")


class TestObjective:
    """r @ r, the objective the descent lowers, at the spectral coordinates
    of known CHMs and of matrices that are none."""

    def test_fourier_phases_with_fourier_target(self):
        F = gen_fourier(6)
        task = SearchTask(target=Spectrum(np.linalg.eigvals(F)), seed=0)
        (placement,) = _placements(task)
        Y = _coordinates(F, oracles.fixed_values(placement).tolist())
        r, (h, _, _, _) = _residual(Y, np.zeros(0), placement, task)
        assert float(r @ r) < 1e-12
        assert np.max(np.abs(h - F[1:, 1:])) < 1e-12

    def test_tao_phases_on_matching_pattern(self):
        task = SearchTask(target="[2,2,1,1]", seed=0)
        placement, phi, _, Y = _tao_coordinates()
        r, (h, _, _, _) = _residual(Y, phi, placement, task)
        assert float(r @ r) < 1e-12
        assert np.max(np.abs(h - gen_tao(1)[1:, 1:])) < 1e-12

    def test_tao_phases_on_wrong_pattern(self):
        # Tao's eigenvectors with a spectrum of any placement of [4,1,1], at
        # any angle of its free value, make no CHM
        task = SearchTask(target="[4,1,1]", seed=0)
        _, _, _, Y = _tao_coordinates()
        for placement in _placements(task):
            for angle in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
                r, _ = _residual(Y, np.array([angle]), placement, task)
                assert float(r @ r) > 0.1

    def test_phase_count_validated(self):
        with pytest.raises(ValueError, match="phases"):
            gradient_check(np.zeros(24))

    def test_empty_phase_vector_checks_no_coordinates(self):
        # n = 1: no phases, the 1x1 matrix [1], and nothing to compare
        assert gradient_check(np.zeros(0)) == 0.0

    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -1e-6])
    def test_step_must_be_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="h must be finite and positive"):
            gradient_check(np.zeros(25), h=h)

    def test_round_trip_phases(self):
        S = gen_tao(1)
        assert np.max(np.abs(phases_to_matrix(matrix_to_phases(S)) - S)) < 1e-14

    @pytest.mark.parametrize("min_gap", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize(
        "pattern", [(4, 1, 1), (4, 2), (3, 3), (2, 2, 1, 1), (1,) * 6, (6,)]
    )
    def test_pattern_penalty_matches_enumeration(self, pattern, min_gap):
        # the hinge rows are what is left of the pattern penalty: Lam has the
        # pattern's multiplicities by construction, and only the clusters'
        # separation is penalized
        rng = np.random.default_rng(31)
        task = SearchTask(target=pattern, min_cluster_gap=min_gap)
        for restart, placement in enumerate(_placements(task)):
            Y, _ = _start(task, placement, restart)
            for _ in range(3):
                phi = rng.uniform(0, 2 * np.pi, placement.free.shape[1])
                r, (_, lam, _, _) = _residual(Y, phi, placement, task)
                hinge = r[25:]
                assert hinge.size == placement.hinge.shape[0]
                expected = oracles.hinge_penalty_by_enumeration(lam, 6, min_gap)
                assert float(hinge @ hinge) == pytest.approx(expected, rel=1e-12)


class TestPartitionTable:
    """A pattern's placements, the table that replaced its partitions."""

    def test_keyed_on_the_pattern_alone(self):
        # n is the pattern's sum
        a = _pattern_placements((4, 1, 1))
        b = _pattern_placements((4, 1))
        assert len(a) == 3 and a[0].free.shape == (4, 1)  # (4, 1), (1, 4), (1, 1)
        assert len(b) == 2 and b[0].free.shape == (3, 0)  # (4, 1), (1, 4)
        assert _pattern_placements((4, 1, 1)) is a
        assert not a[0].free.flags.writeable

    @staticmethod
    def _partitions(n, largest=None):
        """Every descending tuple of positive sizes summing to n."""
        if n == 0:
            yield ()
        for k in range(min(n, largest or n), 0, -1):
            for rest in TestPartitionTable._partitions(n - k, k):
                yield (k,) + rest

    @pytest.mark.parametrize("n", range(1, 8))
    def test_masks_match_dedup_enumeration(self, n):
        # every pattern of n: the same placements in the same order
        if n == 1:  # there is no 1 x 1 task to place
            with pytest.raises(ValueError, match="n must be"):
                SearchTask(target=(1,))
            return
        for pattern in self._partitions(n):
            expected = oracles.placements_by_dedup(pattern, n)
            got = _pattern_placements(pattern)
            assert len(got) == len(expected), pattern
            for p, (fixed, free, pairs, hinge) in zip(got, expected):
                # Lam's fixed values as the step gathers them, tail[lam_at]
                assert np.array_equal(oracles.fixed_values(p), fixed), pattern
                assert np.array_equal(p.free, free), pattern
                assert list(zip(p.k.tolist(), p.l.tolist())) == pairs, pattern
                assert np.array_equal(p.hinge, hinge), pattern

    def test_lists_each_partition_once(self):
        # 12 singletons: one placement, without the 12 x 11 orderings
        assert len(_pattern_placements((1,) * 12)) == 1
        assert len(_pattern_placements((2, 2, 2))) == 1
        assert len(_pattern_placements((3, 2, 1))) == 6

    def test_cache_clear_leaves_reports_unchanged(self):
        task = SearchTask(target="[4,1,1]", restarts=3, max_iters=60, seed=2)
        before = minimize(task).to_json()
        _pattern_placements.cache_clear()
        assert minimize(task).to_json() == before


class TestIndexTables:
    """The placement's index tables give what the dense forms gave, bit for
    bit: Lam against fixed + free @ mu, the hinge separations against
    hinge @ (mu, +sqrt n, -sqrt n), the Jacobian's pair blocks against two
    gathers of T and the step against the S of two scatters into an m x m
    zero matrix."""

    @staticmethod
    def _tasks():
        for n in range(3, 9):
            yield from (SearchTask(target=p) for p in TestPartitionTable._partitions(n))
        rng = np.random.default_rng(71)
        yield SearchTask(target=eigenvalues(gen_tao(1)))
        yield SearchTask(target=Spectrum(SQRT6 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))))

    @staticmethod
    def _dense_step(Y, phi, delta, placement):
        p, m = placement.k.size, Y.shape[1]
        S = np.zeros((m, m), dtype=np.complex128)
        S.ravel()[placement.k * m + placement.l] = delta[:p] + 1j * delta[p:2 * p]
        S.ravel()[placement.l * m + placement.k] = delta[:p] - 1j * delta[p:2 * p]
        w, Q = np.linalg.eigh(S)
        return Y @ ((Q * np.exp(1j * w)) @ Q.conj().T), phi + delta[2 * p:]

    def test_tables_reproduce_the_dense_forms(self):
        rng = np.random.default_rng(72)
        for task in self._tasks():
            rt = math.sqrt(task.n)
            for restart, placement in enumerate(_placements(task)):
                Y, phi = _start(task, placement, restart)
                r, stage = _residual(Y, phi, placement, task)
                h, lam, mu, sep = stage
                assert mu.tobytes() == (rt * np.exp(1j * phi)).tobytes()
                dense = oracles.fixed_values(placement) + placement.free @ mu
                assert lam.tobytes() == dense.tobytes(), task.target
                dense = placement.hinge @ np.concatenate([mu, (rt, -rt)])
                assert sep.tobytes() == dense.tobytes(), task.target
                J = _jacobian(r, Y, stage, placement, task)
                p, t, m = placement.k.size, h.size, Y.shape[1]
                T = (h.conj()[:, :, None, None] * Y[:, None, :, None]
                     * Y.conj()[None, :, None, :]).reshape(t, -1)
                A, B = T[:, placement.k * m + placement.l], T[:, placement.l * m + placement.k]
                d = lam[placement.l] - lam[placement.k]
                assert J[:t, :p].tobytes() == (-2.0 * (d * (A - B)).imag).tobytes()
                assert J[:t, p:2 * p].tobytes() == (-2.0 * (d * (A + B)).real).tobytes()
                delta = rng.standard_normal(2 * p + phi.size)
                for got, want in zip(_step(Y, phi, delta, placement),
                                     self._dense_step(Y, phi, delta, placement)):
                    assert got.tobytes() == want.tobytes(), task.target

    def test_every_table_is_read_only(self):
        for task in self._tasks():
            for placement in _placements(task):
                for name, arr in placement._asdict().items():
                    assert not arr.flags.writeable, name


class TestPlacements:
    @staticmethod
    def _blocks(task):
        """Each placement as (size of the +sqrt(n) block, size of the -sqrt(n)
        block, free block sizes)."""
        rt = math.sqrt(task.n)
        blocks = []
        for p in _placements(task):
            fixed = oracles.fixed_values(p)
            blocks.append((int(np.sum(fixed == rt)) + 1, int(np.sum(fixed == -rt)) + 1,
                           tuple(p.free.sum(axis=0).astype(int).tolist())))
        return blocks

    def test_order(self):
        assert self._blocks(SearchTask(target="[4,1,1]")) == [
            (4, 1, (1,)), (1, 4, (1,)), (1, 1, (4,))]
        assert self._blocks(SearchTask(target="[2,2,1,1]")) == [
            (2, 2, (1, 1)), (2, 1, (2, 1)), (1, 2, (2, 1)), (1, 1, (2, 2))]
        assert self._blocks(SearchTask(target="[3,2,1]")) == [
            (3, 2, (1,)), (3, 1, (2,)), (2, 3, (1,)), (2, 1, (3,)), (1, 3, (2,)), (1, 2, (3,))]
        assert _placements(SearchTask(target="[4,1,1]")) is _placements(SearchTask(target="[4,1,1]"))

    def test_gauge_pairs_are_dropped(self):
        # Lam = (sqrt 6, sqrt 6, sqrt 6, free): only the pairs with the free entry move H
        first = _placements(SearchTask(target="[4,1,1]"))[0]
        assert list(zip(first.k.tolist(), first.l.tolist())) == [(0, 3), (1, 3), (2, 3)]
        assert not first.tail.flags.writeable and not first.lam_at.flags.writeable

    def test_hinges_against_both_constants_even_for_singleton_blocks(self):
        # (1,1) of [2,2,1,1]: two free values, one pair of them and each
        # against +sqrt 6 and -sqrt 6, whose blocks have size one
        last = _placements(SearchTask(target="[2,2,1,1]"))[-1]
        assert last.hinge.tolist() == [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1],
                                       [0, 1, -1, 0], [0, 1, 0, -1]]

    def test_whole_pattern_gets_the_tail_placement(self):
        (tail,) = _placements(SearchTask(target="[6]"))
        assert tail.free.all() and tail.free.shape == (4, 1) and tail.k.size == 0
        assert tail.tail.tolist() == [SQRT6, -SQRT6]
        assert tail.hinge.shape == (2, 3)
        report = minimize(SearchTask(target="[6]", restarts=3, seed=0))
        assert not report.found and report.best_residual > 1e-2

    def test_spectrum_target_sets_the_constants_aside(self):
        target = eigenvalues(gen_tao(1))
        (placement,) = _placements(SearchTask(target=target))
        assert placement.free.shape == (4, 0) and placement.hinge.shape == (0, 2)
        # Tao's two double eigenvalues, each made one value on the circle
        fixed = oracles.fixed_values(placement)
        assert len(set(fixed.tolist())) == 2
        assert np.max(np.abs(np.abs(fixed) - SQRT6)) < 1e-15
        assert placement.k.size == 4  # the pairs across the two doubles
        spectrum = Spectrum(np.concatenate([(SQRT6, -SQRT6), fixed]))
        assert spectrum_distance(spectrum, target) < 1e-7

    def test_restart_r_uses_placement_r_mod_k(self, monkeypatch):
        used = []

        def recorded(Y, phi, task, placement, *args):
            used.append(placement)
            return _descend(Y, phi, task, placement, *args)

        monkeypatch.setattr(chmkit.search, "_descend", recorded)
        task = SearchTask(target="[4,1,1]", restarts=7, max_iters=5, stop_on_success=False)
        minimize(task)
        placements = _placements(task)
        assert [next(i for i, p in enumerate(placements) if p is q) for q in used] == [
            0, 1, 2, 0, 1, 2, 0]


class TestConstruction:
    """The search's matrices against the paper's form, built in ``oracles``
    from the projectors on v+- and an SVD basis of their complement."""

    PATTERNS = {4: [(4,), (3, 1), (2, 1, 1)], 5: [(3, 1, 1), (2, 2, 1), (1,) * 5],
                6: [(3, 2, 1), (2, 2, 1, 1), (5, 1)], 7: [(3, 3, 1), (2, 1, 1, 1, 1, 1)],
                8: [(4, 2, 1, 1), (2, 2, 2, 2)]}

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_the_papers_form(self, n):
        rng = np.random.default_rng(70 + n)
        rt = math.sqrt(n)
        for pattern in self.PATTERNS[n]:
            task = SearchTask(target=pattern)
            for placement in _placements(task):
                U = _haar(rng, n - 2)
                phi = rng.uniform(0.0, 2.0 * math.pi, placement.free.shape[1])
                lam = oracles.fixed_values(placement) + placement.free @ (rt * np.exp(1j * phi))
                H, V = oracles.spectral_construction(U, lam, n)
                assert np.max(np.abs(H[0] - 1.0)) <= 1e-14
                assert np.max(np.abs(H[:, 0] - 1.0)) <= 1e-14
                assert np.max(np.abs(H @ H.conj().T - n * np.eye(n))) <= 1e-12
                expected = np.concatenate([(rt, -rt), lam])
                assert oracles.minimax_assignment(np.linalg.eigvals(H), expected) <= 1e-12
                # the search builds the same interior from Y = V U
                r, (h, lam_s, _, _) = _residual(V[1:] @ U, phi, placement, task)
                assert np.array_equal(lam_s, lam)
                assert np.max(np.abs(h - H[1:, 1:])) <= 1e-14
                unimodular = (np.abs(H[1:, 1:]) ** 2 - 1.0).ravel()
                assert np.max(np.abs(r[:unimodular.size] - unimodular)) <= 1e-13

    def test_start_points_lie_in_w(self):
        task = SearchTask(target="[2,2,1,1]", seed=5)
        for restart, placement in enumerate(_placements(task)):
            Y, phi = _start(task, placement, restart)
            assert np.max(np.abs(Y.conj().T @ Y - np.eye(4))) < 1e-14
            assert np.max(np.abs(Y.sum(axis=0))) < 1e-14
            assert phi.shape == (placement.free.shape[1],)


class TestPolishJacobian:
    """The descent's exact Jacobian in the spectral coordinates."""

    @staticmethod
    def _central_differences(Y, phi, placement, task, h=1e-6):
        size = 2 * placement.k.size + phi.size
        cols = []
        for c in range(size):
            bump = np.zeros(size)
            bump[c] = h
            rp, _ = _residual(*_step(Y, phi, bump, placement), placement, task)
            rm, _ = _residual(*_step(Y, phi, -bump, placement), placement, task)
            cols.append((rp - rm) / (2.0 * h))
        return np.column_stack(cols)

    @pytest.mark.parametrize(
        "target",
        ["[4,1,1]", "[2,2,1,1]", "[3,2,1]", "spectrum", "[4,1,1]-gap5",
         "[3,1,1,1]-non-hermitian"],
    )
    def test_matches_central_differences(self, target):
        task = _task(target)
        placements = _placements(task)
        active = set()
        for restart in range(len(placements) + 2):
            placement = placements[restart % len(placements)]
            Y, phi = _start(task, placement, restart)
            if task.non_hermitian:
                # free values near the real axis, so that the barrier row is active
                phi = np.round(phi / math.pi) * math.pi + 0.01 * np.arange(1, phi.size + 1)
            r, stage = _residual(Y, phi, placement, task)
            J = _jacobian(r, Y, stage, placement, task)
            Jf = self._central_differences(Y, phi, placement, task)
            assert J.shape == Jf.shape == (r.size, 2 * placement.k.size + phi.size)
            assert np.max(np.abs(J - Jf)) <= 1e-6 * np.max(np.abs(J))
            hinge = r[25:25 + placement.hinge.shape[0]]
            assert np.all(J[25:25 + hinge.size][hinge == 0.0] == 0.0)
            active |= {"hinge"} if hinge.any() else set()
            active |= {"barrier"} if task.non_hermitian and r[-1] > 0.0 else set()
        # the rows this target is here to test were active at some point
        assert active >= ({"hinge"} if "gap5" in target else set()) | (
            {"hinge", "barrier"} if task.non_hermitian else set())

    @staticmethod
    def _objective_by_parts(Y, phi, placement, task):
        """The sum of the unimodularity rows' squares, the hinges' (for a
        pattern) and the barrier's, from the paper's form of the point
        (``oracles.spectral_construction``) without the search's code."""
        mu = [SQRT6 * np.exp(1j * angle) for angle in phi]
        lam = [mu[int(np.argmax(row))] if row.any() else fixed
               for row, fixed in zip(placement.free, oracles.fixed_values(placement))]
        _, V = oracles.spectral_construction(np.eye(4), lam, 6)
        H, _ = oracles.spectral_construction(V[1:].conj().T @ Y, lam, 6)
        total = float(np.sum((np.abs(H[1:, 1:]) ** 2 - 1.0) ** 2))
        if not isinstance(task.target, Spectrum):
            total += oracles.hinge_penalty_by_enumeration(lam, 6, task.min_cluster_gap)
        if task.non_hermitian:
            total += max(0.1 - float(np.sum(np.abs(H - H.conj().T) ** 2)), 0.0) ** 2
        return total

    @pytest.mark.parametrize(
        "target",
        ["[4,1,1]", "[4,1,1]-gap0", "[4,1,1]-gap5", "[2,2,1,1]", "[3,2,1]", "spectrum",
         "[3,1,1,1]-non-hermitian"],
    )
    def test_squared_norm_is_the_objective(self, target):
        task = _task(target)
        placements = _placements(task)
        barrier = False
        for restart in range(len(placements) + 2):
            placement = placements[restart % len(placements)]
            Y, phi = _start(task, placement, restart)
            if task.non_hermitian:
                phi = np.round(phi / math.pi) * math.pi + 0.01 * np.arange(1, phi.size + 1)
            r, _ = _residual(Y, phi, placement, task)
            expected = self._objective_by_parts(Y, phi, placement, task)
            assert float(r @ r) == pytest.approx(expected, rel=1e-12)
            barrier |= task.non_hermitian and r[-1] > 0.0
        assert barrier == task.non_hermitian  # the barrier row was active

    def test_residual_length_depends_only_on_the_task(self):
        # every placement of [4,1,1] has one free value, so two hinge rows
        # (against +-sqrt 6) after the 25 unimodularity rows
        for target in ("[4,1,1]", "[4,1,1]-gap5"):
            task = _task(target)
            placements = _placements(task)
            for restart in range(6):
                placement = placements[restart % 3]
                Y, phi = _start(task, placement, restart)
                r, _ = _residual(Y, phi, placement, task)
                assert r.size == 27


class TestFirstFormOracle:
    """The residual and Jacobian are built from the placement's index arrays
    and one 4-D product; they must equal their first form in ``oracles``
    (Lam entry by entry, one column per parameter's change of the interior)
    to rounding, and the descent, which skips the Jacobian of a restart's
    last step and damps J^T J in place, must equal the loop as first written
    bit for bit."""

    PATTERNS = [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1), (2, 2, 2),
                (2, 2, 1, 1), (2, 1, 1, 1, 1), (1,) * 6]

    @staticmethod
    def _points(task, near_real=False):
        """Four start points in each of the task's placements; with
        ``near_real``, free values near the real axis (H near Hermitian)."""
        for restart, placement in enumerate(_placements(task) * 4):
            Y, phi = _start(task, placement, restart)
            if near_real:
                phi = np.round(phi / math.pi) * math.pi + 0.01 * np.arange(1, phi.size + 1)
            yield Y, phi, placement

    @staticmethod
    def _assert_first_form(Y, phi, placement, task):
        r, stage = _residual(Y, phi, placement, task)
        J = _jacobian(r, Y, stage, placement, task)
        r_o, J_o = oracles.spectral_residual_and_jacobian(Y, phi, placement, task)
        assert r.shape == r_o.shape and np.max(np.abs(r - r_o), initial=0.0) <= 1e-12
        assert J.shape == J_o.shape
        scale = max(1.0, np.max(np.abs(J), initial=0.0))
        assert np.max(np.abs(J - J_o), initial=0.0) <= 1e-12 * scale
        return r

    @pytest.mark.parametrize("gap", [0.0, 0.5, 1.5, 5.0])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_pattern_rows(self, pattern, gap):
        task = SearchTask(target=pattern, seed=61, min_cluster_gap=gap)
        for Y, phi, placement in self._points(task):
            self._assert_first_form(Y, phi, placement, task)

    def test_hinge_rows_are_none_some_and_all_active(self):
        # the hinge rows' Jacobian is built only when some pair is nearer than
        # the gap; test_pattern_rows meets no such pair, some and every one
        seen = set()
        for gap, pattern in itertools.product((0.5, 1.5, 5.0), self.PATTERNS):
            task = SearchTask(target=pattern, seed=61, min_cluster_gap=gap)
            for Y, phi, placement in self._points(task):
                pairs = placement.hinge.shape[0]
                if pairs:
                    r, _ = _residual(Y, phi, placement, task)
                    active = np.count_nonzero(r[25:25 + pairs])
                    seen.add("none" if active == 0 else "all" if active == pairs else "some")
        assert seen == {"none", "some", "all"}

    def test_spectrum_target(self):
        # Tao's spectrum (two double values, so gauge pairs) and a random one
        rng = np.random.default_rng(62)
        random = Spectrum(np.linalg.eigvals(phases_to_matrix(rng.uniform(0, 2 * np.pi, 25))))
        for target in (eigenvalues(gen_tao(1)), random):
            task = SearchTask(target=target, seed=62)
            for Y, phi, placement in self._points(task):
                self._assert_first_form(Y, phi, placement, task)

    def test_non_hermitian_near_the_hermitian_family(self):
        task = SearchTask(target="[3,1,1,1]-non-hermitian", seed=63)
        for Y, phi, placement in self._points(task, near_real=True):
            r = self._assert_first_form(Y, phi, placement, task)
            assert r[-1] > 0.0  # barrier row active

    @pytest.mark.parametrize(
        "target, seed, max_iters, stop, restart, near_real",
        [pytest.param("[4,1,1]", 0, 10, "max_iters", 0, False, id="[4,1,1]-0-10-max_iters"),
         pytest.param("[4,1,1]", 0, 5000, "ftol", 0, False, id="[4,1,1]-0-5000-ftol"),
         pytest.param("[2,2,1,1]", 2, 5000, "converged", 0, False,
                      id="[2,2,1,1]-2-5000-converged"),
         # restart 1, free values near the real axis: the barrier row is
         # active at the start and the restart runs its 20 steps
         pytest.param("[3,1,1,1]-non-hermitian", 3, 20, "max_iters", 1, True,
                      id="[3,1,1,1]-non-hermitian-3-20-max_iters"),
         # the secant term's curvature safeguard fires here; without it this
         # restart runs all 5000 steps (86 steps without the secant term)
         pytest.param("[2,2,2]-non-hermitian-gap1.0", 11, 5000, "safeguard", 20, False,
                      id="[2,2,2]-non-hermitian-gap1.0-11-5000-safeguard")],
    )
    def test_descent(self, target, seed, max_iters, stop, restart, near_real):
        task = _task(target, seed=seed, max_iters=max_iters)
        placements = _placements(task)
        placement = placements[restart % len(placements)]
        Y0, phi0 = _start(task, placement, restart)
        if near_real:
            phi0 = np.round(phi0 / math.pi) * math.pi + 0.01 * np.arange(1, phi0.size + 1)
            assert _residual(Y0, phi0, placement, task)[0][-1] > 0.0
        rows = []
        h, lam, f, steps = _descend(Y0, phi0, task, placement, rows, restart)
        h_o, lam_o, f_o, rows_o = oracles.descend_every_jacobian(Y0, phi0, placement, task)
        assert np.array_equal(h, h_o) and np.array_equal(lam, lam_o) and f == f_o
        assert [(step, value) for _, step, value in rows] == rows_o
        assert steps == len(rows_o)
        if stop == "max_iters":
            assert steps == max_iters
        elif stop == "ftol":
            assert steps < max_iters and rows_o[-2][1] - f <= FTOL * f
        elif stop == "safeguard":
            assert steps < 200 and rows_o[-2][1] - f <= FTOL * f
        else:
            assert f < 1e-24


class TestSecantTerm:
    """The secant term S of the large-residual tail: its update, and where
    the descent uses it."""

    @staticmethod
    def _symmetric(rng, size, scale):
        A = scale * rng.standard_normal((size, size))
        return A + A.T

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 1e3])
    def test_update_is_symmetric_and_meets_the_secant_equation(self, scale):
        # scale 0 is the first tail step; at 1e3 the sizing factor is below 1
        rng = np.random.default_rng(81)
        for size in (1, 3, 13):
            S = self._symmetric(rng, size, scale)
            s, y_sharp = rng.standard_normal(size), rng.standard_normal(size)
            y = s + 0.1 * rng.standard_normal(size)
            if y @ s <= 0.0:
                y = -y
            S1 = _secant_update(S, s, y, y_sharp)
            assert np.array_equal(S1, S1.T)
            assert np.max(np.abs(S1 @ s - y_sharp)) <= 1e-12 * max(1.0, np.max(np.abs(S1)))
            # Dennis, Gay and Welsch's formula, from S sized as in NL2SOL
            tau = min(1.0, abs(s @ y_sharp) / abs(s @ S @ s)) if scale else 1.0
            assert (tau < 1.0) == (scale == 1e3)
            w, ys = y_sharp - tau * S @ s, y @ s
            expected = (tau * S + (np.outer(w, y) + np.outer(y, w)) / ys
                        - (w @ s) / ys ** 2 * np.outer(y, y))
            assert np.max(np.abs(S1 - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_update_is_skipped_when_y_s_is_not_positive(self):
        rng = np.random.default_rng(82)
        S = self._symmetric(rng, 5, 1.0)
        s, y_sharp = rng.standard_normal(5), rng.standard_normal(5)
        for y in (-s, np.zeros(5)):
            assert _secant_update(S, s, y, y_sharp) is S

    @staticmethod
    def _against_gauss_newton(task, restart=0):
        """``_descend`` and the Gauss-Newton oracle from one restart's start."""
        placements = _placements(task)
        placement = placements[restart % len(placements)]
        Y0, phi0 = _start(task, placement, restart)
        rows = []
        h, lam, f, _ = _descend(Y0, phi0, task, placement, rows, restart)
        h_o, lam_o, f_o, rows_o = oracles.descend_every_jacobian(
            Y0, phi0, placement, task, secant=False)
        return (h, lam, f, [(step, value) for _, step, value in rows]), (h_o, lam_o, f_o, rows_o)

    @pytest.mark.parametrize("pattern", [(2, 2, 1, 1), (3, 3), (2, 1, 1, 1, 1), (1,) * 6],
                             ids=str)
    def test_found_restarts_take_the_gauss_newton_steps(self, pattern):
        # restart 0 of each search_found benchmark task finds its CHM; the
        # secant term never engages there, so every step is Gauss-Newton's
        for seed in range(6):
            (h, lam, f, rows), (h_o, lam_o, f_o, rows_o) = self._against_gauss_newton(
                SearchTask(target=pattern, seed=seed))
            assert np.array_equal(h, h_o) and np.array_equal(lam, lam_o) and f == f_o
            assert rows == rows_o and f < 1e-24

    def test_a_restart_near_a_zero_takes_the_gauss_newton_steps(self):
        # restart 1 of [1]*7 at seed 5 finds its CHM in 87 steps, most of
        # them below SECANT_FLOOR, where a secant term made it creep for 266
        (h, lam, f, rows), (h_o, lam_o, f_o, rows_o) = self._against_gauss_newton(
            SearchTask(target=(1,) * 7, seed=5), restart=1)
        assert np.array_equal(h, h_o) and f == f_o and rows == rows_o and len(rows) == 87

    @pytest.mark.parametrize("pattern", ["[4,1,1]", "[4,2]"])
    def test_impossible_patterns_take_fewer_steps(self, pattern):
        # criterion 6's patterns end at a large residual; the secant term
        # cuts the Gauss-Newton tail there and ends no higher
        for seed in range(6):
            (_, _, f, rows), (_, _, f_o, rows_o) = self._against_gauss_newton(
                SearchTask(target=pattern, seed=seed))
            assert len(rows) < len(rows_o), seed
            assert f <= f_o * (1.0 + 1e-12), seed


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

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_phase_helpers_read_n_from_the_phases(self, n):
        F = gen_fourier(n)
        phases = matrix_to_phases(F)
        assert np.max(np.abs(phases_to_matrix(phases) - F)) < 1e-14
        assert np.linalg.norm(chm_gradient(phases)) < 1e-8
        rng = np.random.default_rng(n)
        assert gradient_check(phases + 1e-3 * rng.standard_normal(phases.size)) < 1e-5


class TestMinimize:
    def test_found_report_comes_from_its_found_restart(self):
        # restart 28 passes the gate and restart 29 ends lower without
        # passing it: the report's best is restart 28's, not the lower one
        task = SearchTask(target="[1,1,1,1]", restarts=30, seed=0, stop_on_success=False,
                          min_cluster_gap=0.0)
        report = minimize(task)
        assert report.found
        rep = verify_matrix(report.best_matrix, 1e-8)
        assert rep.multiplicity_profile == [1, 1, 1, 1]
        assert report.conflict == rep.failed
        trace = report.traces[report.found_restart]
        assert trace.restart == report.found_restart
        assert report.best_residual == trace.final_residual
        assert np.array_equal(report.best_matrix, phases_to_matrix(report.best_phases))

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
        d = json.loads(report.to_json())
        assert _bits(d["best_residual"]) == _bits(report.best_residual)
        assert _bits(d["best_phases"]) == _bits(report.best_phases)
        assert d["verdict"] == report.verdict
        assert _bits([row[2] for row in d["trace"]]) == _bits(
            [t.final_residual for t in report.traces])

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

class TestFoundInSpectralCoordinates:
    """Targets that the phase-space search missed, or found only after long
    creeps toward a singular zero."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tao_spectrum_target(self, seed):
        # the phase search ended not-found at 3.4531 at both seeds; here Lam
        # is fixed to Tao's values and restart 0 finds it (about 5 ms)
        report = minimize(SearchTask(target=eigenvalues(gen_tao(1)), restarts=10, seed=seed))
        assert report.found and report.best_residual < 1e-20

    def test_321_at_seed_11(self):
        # the phase search took 34 restarts, 28681 steps and about 10 s, five
        # restarts creeping for 5000 steps each; here restart 0, in [3,2,1]'s
        # one productive placement (3, 2), finds it in 29 steps (about 5 ms).
        # About half of that placement's restarts end near 0.051 instead, where
        # the free value is held min_cluster_gap away from -sqrt 6
        report = minimize(SearchTask(target="[3,2,1]", restarts=2, seed=11))
        assert report.found and report.conflict is None
        assert verify_matrix(report.best_matrix).multiplicity_profile == [3, 2, 1]

class TestGateSpectrum:
    def test_found_report_reuses_the_gates_spectrum(self, monkeypatch):
        solved = []
        schur = chmkit.eigen._schur

        def recorded(H, *args):
            solved.append(H.copy())
            return schur(H, *args)

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
    @pytest.mark.parametrize(
        "target", ["[4,1,1]", "[2,2,1,1]", "spectrum", "[3,1,1,1]-non-hermitian"])
    def test_no_eig_or_inv(self, target, monkeypatch):
        task = _task(target, restarts=3, seed=11)
        before = minimize(task).to_json()

        def fail(*args, **kwargs):
            raise AssertionError("the search calls np.linalg.eig or np.linalg.inv")

        monkeypatch.setattr(np.linalg, "eig", fail)
        monkeypatch.setattr(np.linalg, "inv", fail)
        assert minimize(task).to_json() == before

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
        # of "found"; a not-found report's spectrum is the candidate's own, by
        # construction, and needs no solver
        assert not report.found
        numpy = Spectrum(np.linalg.eigvals(report.best_matrix))
        assert spectrum_distance(report.best_spectrum, numpy) < 1e-12


class TestTaskValidation:
    def test_json_round_trip(self):
        task = SearchTask(target="[4,2]", restarts=7, max_iters=123, seed=42,
                          min_cluster_gap=0.25, non_hermitian=True)
        d = json.loads(task.to_json())
        assert d == {"target": {"pattern": [4, 2]}, "n": 6, "restarts": 7, "max_iters": 123,
                     "seed": 42, "tol_success": 1e-8, "min_cluster_gap": 0.25,
                     "non_hermitian": True, "stop_on_success": True}
        assert _bits([d["tol_success"], d["min_cluster_gap"]]) == _bits([1e-8, 0.25])

    #: ``SearchTask(target="[2,2,1,1]").to_json()`` as written before the
    #: objective weights were removed
    SAVED_DEFAULT_TASK = (
        '{"n": 6, "target": {"pattern": [2, 2, 1, 1]}, "restarts": 50, "max_iters": 5000,'
        ' "seed": 0, "tol_success": 1e-08, "w_chm": 1.0, "w_spec": 1.0,'
        ' "min_cluster_gap": 0.5, "non_hermitian": false, "stop_on_success": true}'
    )

    def test_saved_task_still_loads(self):
        task = SearchTask(target="[2,2,1,1]")
        saved = json.loads(self.SAVED_DEFAULT_TASK)
        del saved["w_chm"], saved["w_spec"]
        assert json.loads(task.to_json()) == saved

    def test_spectrum_target_round_trip(self):
        spec = eigenvalues(gen_tao(1))
        task = SearchTask(target=spec, restarts=2, seed=1)
        target = json.loads(task.to_json())["target"]
        assert list(target) == ["spectrum"]
        assert _bits(target["spectrum"]) == _bits([[v.real, v.imag] for v in spec.values])

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            SearchTask(target="[2,2,1,1]", seed=0, restarts=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("seed", "1"),
        ("max_iters", -1),
        # once let through: 2.5 restarts raised TypeError in minimize's range,
        # and max_iters=True ran restarts of one step
        ("restarts", 2.5), ("restarts", True), ("restarts", "3"), ("restarts", np.float64(3.0)),
        ("max_iters", True), ("max_iters", 10.0), ("seed", True),
        ("tol_success", math.nan), ("tol_success", math.inf), ("tol_success", -1e-8),
        ("min_cluster_gap", math.nan), ("min_cluster_gap", math.inf), ("min_cluster_gap", -0.5),
        # once let through: "false" ran the non-Hermitian search and "no"
        # stopped on success; True passed as 1; "1e-8" raised TypeError
        ("non_hermitian", "false"), ("non_hermitian", 1), ("stop_on_success", "no"),
        ("stop_on_success", None), ("tol_success", True), ("tol_success", "1e-8"),
        ("min_cluster_gap", True), ("min_cluster_gap", np.True_), ("tol_success", 1e-8 + 0j),
    ])
    def test_rejects_what_minimize_cannot_run(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchTask(target="[2,2,1,1]", **{field: value})

    @pytest.mark.parametrize("target", [
        # each once failed deep in the descent with a NumPy IndexError or ValueError
        (2, 2, 1, 1, 0), (3, 0), (4, 1, -1),
        # int() once made each another pattern: [2.9, 3.1] became (3, 2)
        [2.9, 3.1], (3.0, 3.0), [np.float64(3.0), 3],
        (True, True, 2, 2), ("3", "3"),
    ], ids=str)
    def test_rejects_a_pattern_entry_that_is_no_positive_integer(self, target):
        with pytest.raises(ValueError, match="pattern entries must be positive integers"):
            SearchTask(target=target)

    def test_accepts_python_and_numpy_integer_entries(self):
        task = SearchTask(target=[1, np.int64(2), np.int32(1), 2])
        assert task.target == (2, 2, 1, 1) and task.n == 6
        assert all(type(p) is int for p in task.target)
        assert '"target": {"pattern": [2, 2, 1, 1]}' in task.to_json()

    def test_accepts_numpy_bools_and_numbers(self):
        task = SearchTask(target="[2,2,1,1]", non_hermitian=np.False_, stop_on_success=np.True_,
                          tol_success=np.float64(1e-8), min_cluster_gap=np.int64(1))
        assert not task.non_hermitian and task.stop_on_success
        d = json.loads(task.to_json())
        assert d["non_hermitian"] is False and d["stop_on_success"] is True

    def test_accepts_the_edges(self):
        task = SearchTask(target="[2,2,1,1]", seed=np.int64(0), max_iters=0,
                          tol_success=0.0, min_cluster_gap=0.0, restarts=np.int64(1))
        assert task.max_iters == 0 and task.seed == 0 and task.restarts == 1

    def test_finds_a_spectrum_target_above_eight(self):
        # F9's spectrum is found at restart 11 of 20, in about 0.1 s
        target = eigenvalues(gen_fourier(9))
        report = minimize(SearchTask(target=target, restarts=20, seed=0))
        assert report.found
        assert spectrum_distance(report.best_spectrum, target) <= 1e-6
