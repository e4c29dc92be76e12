import json
import math
import tracemalloc

import numpy as np
import pytest

from chmkit import core
from chmkit.core import chm_residuals, rank_one_submatrix_scan
from chmkit.eigen import Spectrum, eigenpairs, eigenvalues, spectrum_distance
from chmkit.families import gen_fourier, gen_hermitian, gen_tao
from chmkit.gadgets import (
    MARGIN,
    ProjectorCombo,
    gadget_gram_rank,
    gadget_real_pair_rank,
    gadget_repeated_tail,
    gadget_rotation_constants,
    gadget_triple_eigenvalue,
    random_feasible_weights,
    real_pair_matrix,
    reconstruct_from_projectors,
    repeated_tail_matrix,
    sample_real_pair,
    triple_eigenvalue_matrix,
)

import oracles

SQRT6 = math.sqrt(6.0)


class TestRepeatedTail:
    def test_imaginary_eigenvalue_modulus_residual(self):
        rep = gadget_repeated_tail(6, 1j * SQRT6)
        expected = abs(math.sqrt(97.0 / 25.0) - 1.0)
        assert rep.residuals["entry_modulus_residual"] == pytest.approx(expected, abs=1e-12)
        assert rep.verdict

    def test_plus_sqrt6_fails_on_moduli_not_orthogonality(self):
        # lam = +sqrt(6) makes the construction a scaled Householder
        # reflection: rows stay orthogonal but entries leave the circle
        rep = gadget_repeated_tail(6, SQRT6)
        assert rep.residuals["row23_inner_product"] < 1e-12
        assert rep.residuals["entry_modulus_residual"] == pytest.approx(
            (4 * SQRT6 - 1) / 5 - 1, abs=1e-12
        )
        assert rep.verdict

    def test_matrix_spectrum_matches_design(self):
        lam = SQRT6 * np.exp(0.9j)
        H = repeated_tail_matrix(6, lam)
        target = Spectrum(np.array([SQRT6, -SQRT6, lam, lam, lam, lam]))
        assert spectrum_distance(eigenvalues(H), target) < 1e-9

    def test_n4_real_hadamard_edge_is_honest_fail(self):
        # at n = 4, lam = 2 the construction IS a real Hadamard matrix
        # (d = 1, o = -1 exactly), so no contradiction exists and the gadget
        # must say so
        rep = gadget_repeated_tail(4, 2.0)
        assert not rep.verdict
        assert rep.margin == 0.0

    def test_closed_form_matches_built_matrix(self):
        for n in range(4, 41):
            rt = math.sqrt(n)
            lams = [rt * np.exp(2j * np.pi * k / 256) for k in range(256)]
            for lam in lams + [rt, -rt, 1j * rt, -1j * rt]:
                rep = gadget_repeated_tail(n, lam)
                H = repeated_tail_matrix(n, lam)
                modulus = float(np.max(np.abs(np.abs(H) - 1.0)))
                row = abs(complex(np.vdot(H[2], H[1])))
                assert rep.verdict == (max(modulus, row) >= MARGIN), (n, lam)
                assert rep.residuals["entry_modulus_residual"] == pytest.approx(modulus, abs=4e-15)
                assert rep.residuals["row23_inner_product"] == pytest.approx(row, abs=4e-15)
                # H H^dag = n I for every lam, so rows 2 and 3 are orthogonal
                assert rep.residuals["row23_inner_product"] <= 2e-15, (n, lam)

    def test_huge_n_needs_no_matrix(self):
        n = 10**6
        tracemalloc.start()
        try:
            rep = gadget_repeated_tail(n, math.sqrt(n) * np.exp(0.9j))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n", [6.0, 4.5])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(TypeError):
            gadget_repeated_tail(n, math.sqrt(n))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_offset_sweep_passes(self, n):
        rt = math.sqrt(n)
        for k in range(32):
            lam = rt * np.exp(2j * np.pi * (k + 0.5) / 32)
            assert gadget_repeated_tail(n, lam).verdict, (n, k)

    def test_wrong_modulus_rejected(self):
        with pytest.raises(ValueError):
            gadget_repeated_tail(6, 1.0)
        with pytest.raises(ValueError):
            gadget_repeated_tail(3, math.sqrt(3))

    @pytest.mark.parametrize("lam", [math.nan, complex(math.nan, 1.0), complex(math.inf, 0.0)])
    def test_non_finite_eigenvalue_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            gadget_repeated_tail(6, lam)


class TestTripleEigenvalue:
    LAM = SQRT6 * np.exp(2.0j)
    LAM6 = SQRT6 * np.exp(0.5j)

    def test_random_feasible_inputs_always_fail_chm(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a, t = random_feasible_weights(rng)
            H, rep = gadget_triple_eigenvalue(self.LAM, self.LAM6, a, t)
            assert rep.verdict
            assert rep.margin > 1e-6

    def test_matrix_matches_projector_construction(self):
        rng = np.random.default_rng(4)
        a, t = random_feasible_weights(rng)
        H = triple_eigenvalue_matrix(self.LAM, self.LAM6, a, t)
        # independent assembly through the spectral decomposition
        u6 = np.concatenate([[0.0], a * np.exp(1j * np.concatenate([[0.0], t]))])
        v1 = np.array([1 + SQRT6, 1, 1, 1, 1, 1]) / math.sqrt(12 + 2 * SQRT6)
        v2 = np.array([1 - SQRT6, 1, 1, 1, 1, 1]) / math.sqrt(12 - 2 * SQRT6)
        P1, P2, P6 = (np.outer(v, v.conj()) for v in (v1, v2, u6))
        eye = np.eye(6)
        direct = (
            SQRT6 * P1 - SQRT6 * P2 + self.LAM * (eye - P1 - P2) + (self.LAM6 - self.LAM) * P6
        )
        assert np.max(np.abs(H - direct)) < 1e-12

    def test_designed_spectrum(self):
        rng = np.random.default_rng(8)
        a, t = random_feasible_weights(rng)
        H = triple_eigenvalue_matrix(self.LAM, self.LAM6, a, t)
        target = Spectrum(np.array([SQRT6, -SQRT6, self.LAM, self.LAM, self.LAM, self.LAM6]))
        assert spectrum_distance(eigenvalues(H), target) < 1e-9

    def test_coincident_phases_plant_rank_one_block(self):
        # t1 = t2 forces a rank-one 2x4 block in the constructed matrix
        z = np.array(
            [0.5, 0.45 * np.exp(0.7j), 0.45 * np.exp(0.7j), 0.4 * np.exp(2.4j), 0.3 * np.exp(-1.9j)]
        )
        z -= z.mean()
        z /= np.linalg.norm(z)
        z *= z[0].conjugate() / abs(z[0])
        a, t = np.abs(z), np.angle(z[1:])
        assert abs(t[0] - t[1]) < 1e-12
        H, rep = gadget_triple_eigenvalue(self.LAM, self.LAM6, a, t)
        assert rep.verdict
        assert len(rep.witnesses) >= 1
        rows, cols = rep.witnesses[0]
        assert oracles.is_rank_one_by_minors(H[np.ix_(rows, cols)])
        wire = json.loads(rep.to_json())
        assert list(wire) == ["name", "residuals", "verdict", "margin", "witnesses", "details"]
        assert wire["verdict"] == "pass"
        assert wire["witnesses"] == [[list(r), list(c)] for r, c in rep.witnesses]

    def test_checks_its_own_matrix_once(self, monkeypatch):
        # the planted block of the test above, and random feasible inputs: the
        # report is what the public functions give on H, without as_matrix
        rng = np.random.default_rng(23)
        inputs = [random_feasible_weights(rng) for _ in range(5)]
        z = np.array([0.5, 0.45 * np.exp(0.7j), 0.45 * np.exp(0.7j), 0.4 * np.exp(2.4j),
                      0.3 * np.exp(-1.9j)])
        z -= z.mean()
        z /= np.linalg.norm(z)
        z *= z[0].conjugate() / abs(z[0])
        inputs.append((np.abs(z), np.angle(z[1:])))
        calls = []
        as_matrix = core.as_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return as_matrix(*args, **kwargs)

        for a, t in inputs:
            monkeypatch.setattr(core, "as_matrix", counted)
            H, rep = gadget_triple_eigenvalue(self.LAM, self.LAM6, a, t)
            monkeypatch.undo()
            assert not calls
            chm = chm_residuals(H)
            assert rep.residuals == {"entry_modulus_residual": chm.unimodularity_residual,
                                     "unitarity_residual": chm.unitarity_residual}
            assert rep.witnesses == rank_one_submatrix_scan(H, 2, 4, tol=1e-8)
        assert rep.witnesses

    def test_precondition_violations_are_named(self):
        rng = np.random.default_rng(2)
        a, t = random_feasible_weights(rng)
        with pytest.raises(ValueError, match="lam"):
            gadget_triple_eigenvalue(2.0, self.LAM6, a, t)
        with pytest.raises(ValueError, match="distinct"):
            gadget_triple_eigenvalue(self.LAM, self.LAM, a, t)
        with pytest.raises(ValueError, match="unit norm"):
            gadget_triple_eigenvalue(self.LAM, self.LAM6, a * 1.1, t)
        with pytest.raises(ValueError, match="orthogonal"):
            gadget_triple_eigenvalue(self.LAM, self.LAM6, a, t + 0.3)

    def test_nan_inputs_rejected(self):
        rng = np.random.default_rng(2)
        a, t = random_feasible_weights(rng)
        with pytest.raises(ValueError, match="lam"):
            gadget_triple_eigenvalue(math.nan, self.LAM6, a, t)
        with pytest.raises(ValueError, match="lam6"):
            gadget_triple_eigenvalue(self.LAM, math.nan, a, t)
        with pytest.raises(ValueError, match="nonnegative"):
            gadget_triple_eigenvalue(self.LAM, self.LAM6, np.where(a == a[0], math.nan, a), t)
        with pytest.raises(ValueError, match="orthogonal"):
            gadget_triple_eigenvalue(self.LAM, self.LAM6, a, np.where(t == t[0], math.nan, t))

    def test_precondition_residuals_match_the_numpy_form(self):
        # the checks run on Python floats; the residuals they report are
        # numpy's sum of a**2 and of a[1:] e^{it} to the printed digits
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, t = random_feasible_weights(rng)
            a = a * (1.0 + rng.uniform(1e-7, 1e-5))
            dev = abs(float(np.sum(a**2)) - 1.0)
            with pytest.raises(ValueError, match=f"deviation {dev:.3e}"):
                gadget_triple_eigenvalue(self.LAM, self.LAM6, a, t)
            a /= np.linalg.norm(a)
            t = t + rng.uniform(1e-7, 1e-5, 4)
            ortho = abs(a[0] + np.sum(a[1:] * np.exp(1j * t)))
            with pytest.raises(ValueError, match=f"residual {ortho:.3e}"):
                gadget_triple_eigenvalue(self.LAM, self.LAM6, a, t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_in_every_position_rejected(self, bad):
        rng = np.random.default_rng(2)
        a, t = random_feasible_weights(rng)
        for k in range(5):
            worse = a.copy()
            worse[k] = bad
            with pytest.raises(ValueError, match="nonnegative|unit norm"):
                gadget_triple_eigenvalue(self.LAM, self.LAM6, worse, t)
        for k in range(4):
            worse = t.copy()
            worse[k] = bad
            with pytest.raises(ValueError, match="orthogonal"):
                gadget_triple_eigenvalue(self.LAM, self.LAM6, a, worse)


class TestGramRank:
    def test_rank_and_eigenvalues(self):
        rep = gadget_gram_rank()
        assert rep.verdict
        assert rep.details["rank"] == 5
        assert rep.residuals["eigenvalue_deviation"] < 1e-12
        assert rep.residuals["symmetry_deviation"] == 0.0

    def test_rank_agrees_with_svd(self):
        G = np.full((6, 6), -0.2)
        np.fill_diagonal(G, 1.0)
        sv = np.linalg.svd(G, compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == 5


def _rotation_offset(c):
    """The weight offset sqrt(9c^2 - 3c - 6) / (6 (1 - c)) in numpy floats."""
    return np.sqrt(9.0 * c**2 - 3.0 * c - 6.0) / (6.0 * (1.0 - c))


class TestRotationConstants:
    def test_constants(self):
        # every residual is an exact rational identity, so exactly zero
        rep = gadget_rotation_constants()
        assert rep.verdict
        assert set(rep.residuals.values()) == {0.0}
        assert rep.details["cos_a"] == -0.875
        assert rep.details["weight"] == 1.0 / 3.0
        assert rep.margin == 1e-10

    def test_float_cross_check(self):
        # numpy, apart from the exact path: the root of 8c^2 - c - 7 other
        # than 1, the two weights there and the unimodular diagonal
        rep = gadget_rotation_constants()
        c = float(np.min(np.roots([8.0, -1.0, -7.0]).real))
        assert c == pytest.approx(rep.details["cos_a"], abs=1e-15)
        offset = _rotation_offset(c)
        assert offset == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert 0.5 - offset == pytest.approx(rep.details["weight"], abs=1e-15)
        roots = np.sort(np.roots([1.0, -1.0, 5.0 / (12.0 * (1.0 - c))]).real)
        assert roots == pytest.approx([0.5 - offset, 0.5 + offset], abs=1e-15)
        r = rep.details["weight"]
        assert SQRT6 * abs(1.0 + (np.exp(1j * math.acos(c)) - 1.0) * r) == pytest.approx(1.0)

    def test_offset_bound(self):
        rep = gadget_rotation_constants()
        assert rep.details["offset_bound"] == math.sqrt(6.0) / 12.0
        offsets = _rotation_offset(np.linspace(-1.0, -2.0 / 3.0, 1001))
        assert np.all(offsets <= rep.details["offset_bound"])
        assert offsets[0] == pytest.approx(rep.details["offset_bound"], abs=1e-15)

    def test_repr_has_no_numpy_scalars(self):
        assert "np." not in repr(gadget_rotation_constants())


class TestRealPairRank:
    def test_generic_inputs_hit_rank_four(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d, f = sample_real_pair(rng)
            rep = gadget_real_pair_rank(d, f)
            assert rep.details["branch"] == "rank-4-unsatisfiable"
            assert rep.verdict

    @staticmethod
    def _coincident_fixture():
        r = w = 0.3
        p = 0.79
        q = math.sqrt(0.64 - p**2)
        normal = np.array([p, q]) / 0.8
        perp = np.array([-normal[1], normal[0]])
        uv = -0.45 * normal + math.sqrt(0.64 - 0.45**2) * perp
        d = np.array([p, q, r, r, r, r])
        f = np.array([uv[0], uv[1], w, w, w, w])
        return d, f

    def test_coincident_columns_branch(self):
        d, f = self._coincident_fixture()
        rep = gadget_real_pair_rank(d, f, a=1.0, b=2.0)
        assert rep.verdict
        assert rep.details["branch"] == "rank-3-coincident-columns"
        assert rep.details["rank_D"] <= 3
        assert any(len(g) >= 4 for g in rep.details["column_groups"])
        assert rep.details["rank_one_4x2_count"] >= 1
        H = real_pair_matrix(d, f, 1.0, 2.0)
        rows, cols = rep.witnesses[0]
        assert oracles.is_rank_one_by_minors(H[np.ix_(rows, cols)])

    def test_coincident_columns_lists_every_exact_witness(self):
        # at these angles sigma1 < 2.1 on the witness blocks, where square
        # roots of Gram eigenvalues used to lift sigma2 = 0 above the cut
        d, f = self._coincident_fixture()
        a, b = 1.6590624786635573, 2.63768105946942
        rep = gadget_real_pair_rank(d, f, a=a, b=b)
        H = real_pair_matrix(d, f, a, b)
        assert len(rep.witnesses) == 7
        for rows, cols in rep.witnesses:
            assert oracles.is_rank_one_by_minors(H[np.ix_(rows, cols)])

    def test_uniform_fixture_reports_low_rank(self):
        d = np.full(6, 1.0 / math.sqrt(6.0))
        f = np.array([1.0, -1, 1, -1, 1, -1]) / math.sqrt(6.0)
        rep = gadget_real_pair_rank(d, f)
        assert rep.details["rank_D"] == 2
        assert rep.details["branch"] == "rank-2-no-coincidence"

    def test_preconditions(self):
        d = np.full(6, 1.0 / math.sqrt(6.0))
        f = np.array([1.0, -1, 1, -1, 1, -1]) / math.sqrt(6.0)
        with pytest.raises(ValueError, match="sum d"):
            gadget_real_pair_rank(d * 1.1, f)
        with pytest.raises(ValueError, match="sum d f"):
            gadget_real_pair_rank(d, np.abs(f))  # all-positive f is not orthogonal to d
        with pytest.raises(ValueError, match="strictly"):
            bad = d.copy()
            bad[0] = 1.2
            gadget_real_pair_rank(bad, f)

    def test_nan_entries_rejected(self):
        d = np.full(6, 1.0 / math.sqrt(6.0))
        f = np.array([1.0, -1, 1, -1, 1, -1]) / math.sqrt(6.0)
        with pytest.raises(ValueError, match="strictly"):
            gadget_real_pair_rank(np.where(d == d[0], math.nan, d), f)
        with pytest.raises(ValueError, match="nonzero"):
            gadget_real_pair_rank(d, np.full(6, math.nan))


class TestProjectorReconstruction:
    def test_round_trip_tao(self):
        S = gen_tao(1)
        combo = ProjectorCombo.from_pairs(eigenpairs(S))
        assert np.max(np.abs(reconstruct_from_projectors(combo) - S)) < 1e-9

    def test_round_trip_hermitian(self):
        H = gen_hermitian(2.5)
        combo = ProjectorCombo.from_pairs(eigenpairs(H))
        assert np.max(np.abs(reconstruct_from_projectors(combo) - H)) < 1e-9

    def test_scaled_identity_frame(self):
        combo = ProjectorCombo(values=np.full(6, SQRT6), vectors=np.eye(6, dtype=complex))
        H = reconstruct_from_projectors(combo)
        assert np.allclose(H, SQRT6 * np.eye(6))
        assert not chm_residuals(H).is_chm

    def test_rejects_off_circle_values(self):
        with pytest.raises(ValueError, match="sqrt"):
            reconstruct_from_projectors(
                ProjectorCombo(values=np.ones(6), vectors=np.eye(6, dtype=complex))
            )

    def test_rejects_non_orthonormal_frame(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ProjectorCombo(values=np.full(6, SQRT6), vectors=np.ones((6, 6), dtype=complex))

    def test_rejects_nan_values(self):
        with pytest.raises(ValueError, match="sqrt"):
            reconstruct_from_projectors(
                ProjectorCombo(values=np.full(6, math.nan), vectors=np.eye(6, dtype=complex))
            )

    @pytest.mark.parametrize("n", range(2, 17))
    def test_fourier_round_trip(self, n):
        # the circle is sqrt(n) at every n, not sqrt(6)
        F = gen_fourier(n)
        combo = ProjectorCombo.from_pairs(eigenpairs(F))
        assert np.max(np.abs(reconstruct_from_projectors(combo) - F)) < 1e-8

    def test_corpus_round_trip(self, corpus):
        for name, H in corpus:
            combo = ProjectorCombo.from_pairs(eigenpairs(H))
            assert np.max(np.abs(reconstruct_from_projectors(combo) - H)) < 1e-8, name


def _real_pair_coincident():
    return gadget_real_pair_rank(*TestRealPairRank._coincident_fixture(), a=1.0, b=2.0)


GADGET_BUILDERS = {
    "repeated-tail": lambda rng: gadget_repeated_tail(6, SQRT6 * np.exp(0.9j)),
    "triple-eigenvalue": lambda rng: gadget_triple_eigenvalue(
        SQRT6 * np.exp(0.4j), SQRT6 * np.exp(2.5j), *random_feasible_weights(rng))[1],
    "gram-rank": lambda rng: gadget_gram_rank(),
    "rotation-constants": lambda rng: gadget_rotation_constants(),
    "real-pair-generic": lambda rng: gadget_real_pair_rank(*sample_real_pair(rng)),
    "real-pair-coincident": lambda rng: _real_pair_coincident(),
}


@pytest.mark.parametrize("name", sorted(GADGET_BUILDERS))
def test_every_residual_is_a_builtin_float(name):
    report = GADGET_BUILDERS[name](np.random.default_rng(43))
    assert report.residuals
    for key, value in report.residuals.items():
        assert type(value) is float, (key, type(value))
