import dataclasses
import functools
import importlib
import itertools
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chmkit
from chmkit import core, gadgets
from chmkit.core import (
    DegenerateInputError,
    DimensionError,
    MonomialUnitary,
    apply_equivalence,
    chm_residuals,
    dephase,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    rank_one_submatrix_scan,
)
from chmkit.eigen import Spectrum
from chmkit.families import gen_fourier, gen_haagerup, gen_tao

import oracles

SQRT6 = math.sqrt(6.0)


class TestChmResiduals:
    def test_tao_is_chm(self):
        rep = chm_residuals(gen_tao(1))
        assert rep.unimodularity_residual < 1e-12
        assert rep.unitarity_residual < 1e-12
        assert rep.is_chm

    def test_identity_is_not_chm(self):
        rep = chm_residuals(np.eye(6))
        assert rep.unimodularity_residual == pytest.approx(1.0)
        assert not rep.is_chm

    def test_haagerup_pi_fifth(self):
        rep = chm_residuals(gen_haagerup(np.exp(1j * np.pi / 5)))
        assert rep.unimodularity_residual < 1e-12
        assert rep.unitarity_residual < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            chm_residuals(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        bad = np.ones((3, 3), dtype=complex)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            chm_residuals(bad)

    def test_unitarity_residual_matches_identity_subtraction(self, corpus):
        # G - n I with the n subtracted on G's diagonal in place gives the
        # same bits as subtracting the dense n * eye(n)
        rng = np.random.default_rng(43)
        mats = [H for _, H in corpus] + [gen_fourier(n) for n in range(2, 17)]
        mats += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                 for n in (1, 2, 3, 6, 9) for _ in range(4)]
        for H in mats:
            n = H.shape[0]
            ref = float(np.linalg.norm(H @ H.conj().T - n * np.eye(n)))
            assert np.float64(chm_residuals(H).unitarity_residual).tobytes() == \
                np.float64(ref).tobytes()


class TestDephase:
    def test_already_dephased_is_fixed_point(self):
        H = gen_haagerup(1j)
        D, left, right = dephase(H)
        assert np.array_equal(D, H)
        assert np.allclose(left.to_matrix(), np.eye(6))
        assert np.allclose(right.to_matrix(), np.eye(6))

    def test_undoes_diagonal_scaling_of_tao(self):
        S = gen_tao(1)
        scaled = np.diag([1j, 1, 1, 1, 1, 1]) @ S
        D, _, _ = dephase(scaled)
        assert np.max(np.abs(D - S)) < 1e-14

    def test_random_scaling_preserves_residuals(self):
        rng = np.random.default_rng(42)
        F = gen_fourier(6)
        for _ in range(5):
            dl = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            dr = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
            scaled = dl[:, None] * F * dr[None, :]
            D, _, _ = dephase(scaled)
            before, after = chm_residuals(scaled), chm_residuals(D)
            assert after.is_chm == before.is_chm
            assert abs(after.unitarity_residual - before.unitarity_residual) < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        H = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 4)))
        once, left, right = dephase(H)
        twice, _, _ = dephase(once)
        assert np.max(np.abs(twice - once)) < 1e-12
        assert np.max(np.abs(apply_equivalence(H, left, right) - once)) < 1e-12

    def test_zero_border_entry_rejected(self):
        H = np.ones((3, 3), dtype=complex)
        H[0, 1] = 0.0
        with pytest.raises(DegenerateInputError):
            dephase(H)

    def test_factors_carry_the_phases_that_make_d(self):
        # verify_matrix dephases without building the factors; D must be the
        # same bits either way
        rng = np.random.default_rng(7)
        H = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 6)))
        D, left, right = dephase(H)
        bare, left_phases, right_phases = core._dephase_phases(H)
        assert np.array_equal(bare, D)
        assert left.phases == tuple(left_phases) and right.phases == tuple(right_phases)


class TestApplyEquivalence:
    def test_identity_operators(self):
        S = gen_tao(1)
        out = apply_equivalence(S, MonomialUnitary(6, range(6)), MonomialUnitary(6, range(6)))
        assert np.array_equal(out, S)

    def test_row_swap(self):
        S = gen_tao(1)
        P = MonomialUnitary(6, (1, 0, 2, 3, 4, 5))
        out = apply_equivalence(S, P, MonomialUnitary(6, range(6)))
        assert np.allclose(out[0], S[1])
        assert np.allclose(out[1], S[0])
        assert chm_residuals(out).is_chm

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_monomials_preserve_residuals(self, seed):
        rng = np.random.default_rng(seed)
        H = gen_haagerup(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        P = MonomialUnitary(
            n=6, perm=tuple(rng.permutation(6)), phases=tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        )
        Q = MonomialUnitary(
            n=6, perm=tuple(rng.permutation(6)), phases=tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        )
        out = apply_equivalence(H, P, Q)
        ra, rb = chm_residuals(H), chm_residuals(out)
        assert abs(ra.unimodularity_residual - rb.unimodularity_residual) < 1e-12
        assert abs(ra.unitarity_residual - rb.unitarity_residual) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_equivalence(np.eye(3), MonomialUnitary(4, range(4)), MonomialUnitary(3, range(3)))

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            MonomialUnitary(n=3, perm=(0, 0, 1))
        with pytest.raises(ValueError):
            MonomialUnitary(n=2, perm=(0, 1), phases=(2.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan), complex(math.inf, 0)])
    @pytest.mark.parametrize("where", [0, 1])
    def test_monomial_rejects_non_finite_phases(self, bad, where):
        # a NaN deviation must not slip past the range check, whichever
        # phase carries it
        phases = [1.0, 1.0]
        phases[where] = bad
        with pytest.raises(ValueError, match="phases must be unimodular"):
            MonomialUnitary(n=2, perm=(0, 1), phases=tuple(phases))


class TestNumericalRank:
    def test_equiangular_gram_rank_five(self):
        G = np.full((6, 6), -0.2)
        np.fill_diagonal(G, 1.0)
        assert numerical_rank(G, 1e-8) == 5

    def test_all_ones_rank_one(self):
        assert numerical_rank(np.ones((3, 3)), 1e-8) == 1

    def test_tao_full_rank(self):
        assert numerical_rank(gen_tao(1), 1e-8) == 6

    def test_matches_minor_oracle_on_small_matrices(self):
        # controlled singular values, well separated from zero
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                s = np.zeros(n)
                s[:r] = np.linspace(2.0, 1.0, r)
                M = U @ np.diag(s) @ V
                assert numerical_rank(M, 1e-8) == oracles.minor_rank(M) == r

    def test_agrees_with_svd_path(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        ours = core.singular_values(M)
        ref = np.linalg.svd(M, compute_uv=False)
        assert np.max(np.abs(ours - ref)) < 1e-10


class TestRankOneScan:
    def test_all_ones_every_block_is_witness(self):
        wit = rank_one_submatrix_scan(np.ones((6, 6)), 3, 3, 1e-8)
        assert len(wit) == 400

    def test_tao_has_no_rank_one_2x4(self):
        S = gen_tao(1)
        assert rank_one_submatrix_scan(S, 2, 4, 1e-8) == []
        # independent cross-check on a couple of blocks via 2x2 minors
        assert not oracles.is_rank_one_by_minors(S[np.ix_([0, 1], [0, 1, 2, 3])])

    def test_scan_agrees_with_minor_oracle(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        M[3] = M[1] * (0.3 - 0.8j)  # plant one rank-one 2 x 5 block
        wits = rank_one_submatrix_scan(M, 2, 3, 1e-8)
        for rows, cols in wits:
            assert oracles.is_rank_one_by_minors(M[np.ix_(rows, cols)])
        assert all(set(rows) == {1, 3} for rows, _ in wits)
        assert len(wits) == 10  # C(5,3) column choices for the planted pair

    def test_witness_iff_numerical_rank_one(self):
        # random unimodular matrices, with every other one given a planted
        # coincidence (two proportional rows or columns) and one a zero block,
        # whose singular values are all 0
        rng = np.random.default_rng(41)
        mats = []
        for k in range(8):
            M = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (6, 6)))
            i, j = rng.choice(6, 2, replace=False)
            if k % 4 == 1:
                M[j] = M[i] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            elif k % 4 == 3:
                M[:, j] = M[:, i] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            mats.append(M)
        mats[0][:3, :3] = 0.0
        for M in mats:
            for r, c in ((2, 4), (4, 2), (3, 3), (1, 3), (2, 2)):
                wits = set(rank_one_submatrix_scan(M, r, c, 1e-8))
                for rows in itertools.combinations(range(6), r):
                    for cols in itertools.combinations(range(6), c):
                        rank = numerical_rank(M[np.ix_(rows, cols)], 1e-8)
                        assert ((rows, cols) in wits) == (rank == 1), (rows, cols, rank)

    def test_oversized_request_rejected(self):
        with pytest.raises(DimensionError):
            rank_one_submatrix_scan(np.ones((3, 3)), 4, 2)

    def test_witnesses_are_tuples_of_python_ints(self):
        # as gadget reports print and write them
        wits = rank_one_submatrix_scan(np.ones((4, 4)), 2, 3, 1e-8)
        assert wits[:2] == [((0, 1), (0, 1, 2)), ((0, 1), (0, 1, 3))]
        assert {type(i) for rows, cols in wits for i in rows + cols} == {int}


class TestScreenedScanOracle:
    """The 2x2-minor screen only skips SVDs: the witness list, order included,
    is the unscreened scan's (``oracles.rank_one_scan_unscreened``)."""

    @staticmethod
    def assert_same(H, r, c, tol=1e-8):
        ours = rank_one_submatrix_scan(H, r, c, tol)
        assert ours == oracles.rank_one_scan_unscreened(H, r, c, tol)
        return ours

    @pytest.mark.parametrize("coincident", [False, True])
    def test_triple_matrices(self, coincident):
        rng = np.random.default_rng(13 + coincident)
        found = 0
        for _ in range(40):
            z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            if coincident:  # two equal entries of the sixth eigenvector
                i, j = rng.choice(np.arange(1, 5), 2, replace=False)
                z[j] = z[i]
            z -= z.mean()
            z /= np.linalg.norm(z)
            z *= z[0].conjugate() / abs(z[0])
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            beta = alpha + rng.uniform(0.5, 2.0 * math.pi - 0.5)
            H = gadgets.triple_eigenvalue_matrix(
                SQRT6 * np.exp(1j * alpha), SQRT6 * np.exp(1j * beta), np.abs(z), np.angle(z[1:]))
            found += len(self.assert_same(H, 2, 4))
        assert (found > 0) == coincident

    def test_real_pair_reconstructions(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d, f = gadgets.sample_real_pair(rng)
            a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
            self.assert_same(gadgets.real_pair_matrix(d, f, a, b), 4, 2)

    def test_planted_blocks_straddling_tol(self):
        # rank-one blocks perturbed by 1e-12 to 1e-6 of their norm, so that
        # sigma_2 / sigma_1 falls on both sides of tol = 1e-8
        rng = np.random.default_rng(19)
        outcomes = set()
        for k in range(60):
            H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            r, c = ((2, 4), (4, 2), (3, 3), (2, 2))[k % 4]
            rows = rng.choice(6, r, replace=False)
            cols = rng.choice(6, c, replace=False)
            u = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            v = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            block = np.outer(u, v)
            noise = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
            rel = 10.0 ** rng.uniform(-12.0, -6.0)
            H[np.ix_(rows, cols)] = block + rel * np.linalg.norm(block) * noise / np.linalg.norm(noise)
            wits = self.assert_same(H, r, c)
            outcomes.add((tuple(sorted(rows)), tuple(sorted(cols))) in wits)
        assert outcomes == {True, False}

    def test_zero_blocks(self):
        H = np.exp(1j * np.random.default_rng(23).uniform(0.0, 2.0 * math.pi, (6, 6)))
        H[:3, :4] = 0.0
        for r, c in ((2, 4), (3, 3), (2, 2)):
            self.assert_same(H, r, c)
        self.assert_same(np.zeros((4, 5)), 2, 3)

    @pytest.mark.parametrize("r, c", [(1, 3), (3, 1), (1, 1), (1, 6), (6, 1)])
    def test_blocks_without_minors(self, r, c):
        rng = np.random.default_rng(29)
        H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H[2, :3] = 0.0
        assert len(self.assert_same(H, r, c)) > 0

    def test_non_square(self):
        rng = np.random.default_rng(31)
        H = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        H[3] = H[1] * (0.4 + 0.2j)
        for r, c in ((2, 3), (3, 2), (2, 7), (5, 1)):
            self.assert_same(H, r, c)
        self.assert_same(H.T, 3, 2)

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1.0, 1e150, 1e160])
    @pytest.mark.parametrize("tol", [0.0, 1e-16, 1e-8, math.inf, math.nan])
    def test_extreme_scales_and_tolerances(self, scale, tol):
        # minors that underflow, products that overflow, and a tol below the
        # rounding of the minors must not rule out a block the SVD keeps
        rng = np.random.default_rng(37)
        for _ in range(4):
            H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            H[:3, :4] = np.outer(u[:3], v[:4])
            H[2:5, 1:] = np.outer(u[2:5], v[1:])
            for r, c in ((2, 4), (3, 3), (2, 2)):
                self.assert_same(H * scale, r, c, tol)

    def test_nothing_survives_the_screen(self, monkeypatch):
        H = gen_tao(1)
        stacks = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            stacks.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert rank_one_submatrix_scan(H, 2, 4, 1e-8) == []
        monkeypatch.undo()
        assert stacks == []  # no SVD of an empty stack
        assert oracles.rank_one_scan_unscreened(H, 2, 4, 1e-8) == []

    @pytest.mark.parametrize("r, c", [(2, 4), (4, 2), (3, 3), (2, 3), (1, 4), (3, 1)])
    def test_random_and_planted_blocks(self, r, c):
        rng = np.random.default_rng(47)
        found = 0
        for k in range(12):
            H = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            if k % 2:
                rows = rng.choice(6, r, replace=False)
                cols = rng.choice(6, c, replace=False)
                u = rng.standard_normal(r) + 1j * rng.standard_normal(r)
                v = rng.standard_normal(c) + 1j * rng.standard_normal(c)
                H[np.ix_(rows, cols)] = np.outer(u, v)
            found += len(self.assert_same(H, r, c))
        assert found >= 6


@pytest.mark.parametrize("nr, nc", [(2, 4), (4, 2), (3, 3), (2, 3), (6, 6), (5, 7)])
def test_flat_minor_table_matches_two_dimensional_indexing(nr, nc):
    # the corner table gives h_ik h_jl - h_il h_jk bit for bit as indexing
    # H with the row pairs (i, j) down and the column pairs (k, l) across
    rng = np.random.default_rng(53)
    rp = np.array(list(itertools.combinations(range(nr), 2)))
    cp = np.array(list(itertools.combinations(range(nc), 2)))
    i, j, k, l = rp[:, :1], rp[:, 1:], cp[None, :, 0], cp[None, :, 1]
    for _ in range(20):
        H = rng.standard_normal((nr, nc)) + 1j * rng.standard_normal((nr, nc))
        ref = np.abs(H[i, k] * H[j, l] - H[i, l] * H[j, k]).ravel()
        for r, c in ((2, 2), (min(nr, 3), 2), (2, nc)):
            ik, jl, il, jk = H.take(core._scan_tables(nr, nc, r, c).corners)
            assert np.array_equal(np.abs(ik * jl - il * jk), ref)


class TestPlain:
    @pytest.mark.parametrize(
        "value, plain",
        [
            (1.5, 1.5),
            (None, None),
            (np.float64(0.25), 0.25),
            (np.int64(3), 3),
            (1 - 2j, [1.0, -2.0]),
            (np.complex128(complex(-0.0, 1.0)), [-0.0, 1.0]),
            ((1, (2, "x")), [1, [2, "x"]]),
            ({"a": (1j, False)}, {"a": [[0.0, 1.0], False]}),
            (np.array([[1 + 2j, 3]]), [[[1.0, 2.0], [3.0, 0.0]]]),
            (Spectrum(np.array([1j, 2.0])), [[2.0, 0.0], [0.0, 1.0]]),
            (chm_residuals(np.ones((1, 1))),
             {"n": 1, "unimodularity_residual": 0.0, "unitarity_residual": 0.0,
              "tol": core.DEFAULT_TOL, "is_chm": True}),
        ],
    )
    def test_json_form(self, value, plain):
        out = core._plain(value)
        assert out == plain
        assert json.dumps(out) == json.dumps(plain)


class TestSharedState:
    """README's contract: the only state a process shares is four read-only
    caches, and ``_Report.to_dict`` writes each report's fields in order."""

    CACHES = {"cli.build_parser", "core._scan_tables", "eigen._strict_upper",
              "search._pattern_placements"}

    @staticmethod
    def _namespaces():
        """(module name, namespace) of every chmkit module and of each class
        defined in one."""
        for info in pkgutil.iter_modules(chmkit.__path__):
            module = importlib.import_module(f"chmkit.{info.name}")
            yield info.name, vars(module)
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    yield info.name, vars(obj)

    def test_the_caches_are_the_four_readme_lists(self):
        found = {f"{module}.{name}" for module, namespace in self._namespaces()
                 for name, obj in namespace.items()
                 if isinstance(obj, functools.cached_property)
                 or (hasattr(obj, "cache_info") and obj.__module__ == f"chmkit.{module}")}
        assert found == self.CACHES
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("The only state shared"):].split("\n\n")[0]
        shared = " ".join(paragraph.split())
        assert shared.startswith("The only state shared within a process is four")
        for name in self.CACHES:
            assert f"`{name}`" in shared, name

    def test_to_dict_writes_the_dataclass_fields_in_order(self):
        list(self._namespaces())  # imports every module, so every report class
        classes, todo = [], [core._Report]
        while todo:
            subclasses = todo.pop().__subclasses__()
            classes += subclasses
            todo += subclasses
        assert {cls.__name__ for cls in classes} == {
            "ChmReport", "ConstantEigenpairReport", "HermitianEquivalenceReport", "VerifyReport",
            "SearchTask", "SearchReport", "GadgetReport", "TrioReport",
        }
        for cls in classes:
            names = [f.name for f in dataclasses.fields(cls)]
            assert list(cls.__dataclass_fields__) == names, cls


class TestMatrixJson:
    def test_round_trip_bit_exact(self):
        H = gen_haagerup(np.exp(0.3j))
        again = matrix_from_json(matrix_to_json(H))
        assert np.array_equal(H, again)

    def test_seventeen_digit_payload(self):
        text = matrix_to_json(np.array([[1 / 3 + 1j * math.pi]]))
        assert "0.33333333333333331" in text
        assert "3.1415926535897931" in text

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="ragged|wrongly sized"):
            matrix_from_json('{"n": 2, "re": [[1, 2], [3]], "im": [[0, 0], [0, 0]]}')

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"n": 2, "re": [[1, 0], [0, 1]]}')

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"n": 1, "re": [["x"]], "im": [[0]]}')

    @pytest.mark.parametrize("text, message", [
        ('{"n": true, "re": [[1]], "im": [[0]]}', '"n" must be a positive integer'),
        ('{"n": 2, "re": [[1, 2], [3]], "im": [[0, 0], [0, 0]]}',
         '"re" has a ragged or wrongly sized row'),
        ('{"n": 2, "re": [[1, 2]], "im": [[0, 0], [0, 0]]}', '"re" must be a list of 2 rows'),
        ('{"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], [0, true]]}',
         '"im" contains a non-numeric entry'),
        ('{"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], [0, null]]}',
         '"im" contains a non-numeric entry'),
        ('{"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], [0, "0"]]}',
         '"im" contains a non-numeric entry'),
        ('{"n": 2, "re": [[1, 2], [3, 4]], "im": [[0, 0], [0, [0]]]}',
         '"im" contains a non-numeric entry'),
        # these three once raised OverflowError and RecursionError, which
        # escaped the CLI's error handling as a traceback with exit 1
        ('{"n": 1, "re": [[%s]], "im": [[0]]}' % ("9" * 400),
         "matrix contains an integer entry too large for a float"),
        ('{"n": 1, "re": [[0]], "im": [[-%s]]}' % ("9" * 400),
         "matrix contains an integer entry too large for a float"),
        ("[" * 100000, "JSON nested too deeply to parse"),
    ], ids=["bool-n", "ragged", "short", "bool", "null", "string", "nested",
            "huge-integer", "huge-negative-integer", "deep-nesting"])
    def test_exact_messages(self, text, message):
        with pytest.raises(ValueError) as exc:
            matrix_from_json(text)
        assert str(exc.value) == message

    def test_ints_and_floats_mix(self):
        H = matrix_from_json('{"n": 2, "re": [[1, 0.5], [-2, 3]], "im": [[0, 1e-3], [0.0, -1]]}')
        assert np.array_equal(H, np.array([[1, 0.5 + 1e-3j], [-2, 3 - 1j]]))

    def test_file_round_trip(self, tmp_path):
        H = gen_tao(2)
        path = tmp_path / "tao.json"
        path.write_text(core.matrix_to_json(H))
        assert np.array_equal(core.read_matrix(path), H)
        assert json.loads(path.read_text())["n"] == 6
