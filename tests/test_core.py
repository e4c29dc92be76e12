import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chmkit import core
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


class TestApplyEquivalence:
    def test_identity_operators(self):
        S = gen_tao(1)
        out = apply_equivalence(S, MonomialUnitary.identity(6), MonomialUnitary.identity(6))
        assert np.array_equal(out, S)

    def test_row_swap(self):
        S = gen_tao(1)
        P = MonomialUnitary.permutation((1, 0, 2, 3, 4, 5))
        out = apply_equivalence(S, P, MonomialUnitary.identity(6))
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
            apply_equivalence(np.eye(3), MonomialUnitary.identity(4), MonomialUnitary.identity(3))

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            MonomialUnitary(n=3, perm=(0, 0, 1))
        with pytest.raises(ValueError):
            MonomialUnitary(n=2, perm=(0, 1), phases=(2.0, 1.0))


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

    def test_file_round_trip(self, tmp_path):
        H = gen_tao(2)
        path = tmp_path / "tao.json"
        core.write_matrix(H, path)
        assert np.array_equal(core.read_matrix(path), H)
        assert json.loads(path.read_text())["n"] == 6
