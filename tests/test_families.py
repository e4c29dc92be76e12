import math

import numpy as np
import pytest

from chmkit.core import chm_residuals
from chmkit.families import (
    HERMITIAN_THETA_MIN,
    Q_VALUES,
    THETA_VALUES,
    BranchFailureError,
    gen_fourier,
    gen_haagerup,
    gen_hermitian,
    gen_tao,
    hermitian_parameters,
)

OMEGA = np.exp(2j * np.pi / 3)


class TestFourier:
    def test_f2_is_the_real_hadamard(self):
        assert np.allclose(gen_fourier(2), [[1, 1], [1, -1]], atol=1e-15)

    def test_f6_second_row(self):
        w6 = np.exp(1j * np.pi / 3)
        row = gen_fourier(6)[1]
        assert np.allclose(row, [1, w6, w6**2, -1, w6**4, w6**5], atol=1e-14)

    def test_f6_is_dephased_chm(self):
        rep = chm_residuals(gen_fourier(6))
        assert rep.is_chm

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_fourier(1)


class TestTao:
    def test_marked_entries(self):
        S = gen_tao(1)
        assert S[1, 2] == pytest.approx(OMEGA)  # row 2, column 3
        assert S[2, 4] == pytest.approx(OMEGA**2)  # row 3, column 5

    def test_exactly_symmetric(self):
        for branch in (1, 2):
            S = gen_tao(branch)
            assert np.array_equal(S, S.T)

    def test_both_branches_are_chms(self):
        for branch in (1, 2):
            assert chm_residuals(gen_tao(branch)).is_chm

    def test_trace_is_six(self):
        assert np.trace(gen_tao(1)) == pytest.approx(6.0)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            gen_tao(3)


class TestHaagerup:
    def test_marked_entries_at_q_i(self):
        H = gen_haagerup(1j)
        assert H[2, 4] == pytest.approx(1j)  # row 3, column 5 carries q
        assert H[4, 2] == pytest.approx(-1j)  # row 5, column 3 carries 1/q

    @pytest.mark.parametrize("q", Q_VALUES, ids=[f"q{k}" for k in range(len(Q_VALUES))])
    def test_trace_constant(self, q):
        assert np.trace(gen_haagerup(q)) == pytest.approx(-2 + 2j)

    @pytest.mark.parametrize("q", Q_VALUES, ids=[f"q{k}" for k in range(len(Q_VALUES))])
    def test_chm_for_all_q(self, q):
        rep = chm_residuals(gen_haagerup(q))
        assert rep.unimodularity_residual < 1e-12
        assert rep.unitarity_residual < 1e-12

    def test_non_unimodular_q_rejected(self):
        with pytest.raises(ValueError):
            gen_haagerup(1.5)

    @pytest.mark.parametrize("q", [complex(math.nan, math.nan), complex(1, math.nan),
                                   complex(math.inf, 0), complex(math.inf, math.nan)])
    def test_non_finite_q_rejected(self, q):
        with pytest.raises(ValueError, match="q must be unimodular"):
            gen_haagerup(q)


class TestHermitian:
    @pytest.mark.parametrize("theta", THETA_VALUES, ids=[f"t{k}" for k in range(8)])
    def test_hermitian_and_chm(self, theta):
        H = gen_hermitian(theta)
        assert np.linalg.norm(H - H.conj().T) < 1e-10
        assert chm_residuals(H).is_chm

    @pytest.mark.parametrize("theta", THETA_VALUES, ids=[f"t{k}" for k in range(8)])
    def test_trace_zero(self, theta):
        assert abs(np.trace(gen_hermitian(theta))) < 1e-10

    def test_theta_pi_regression_values(self):
        y, z, x, t = hermitian_parameters(math.pi)
        assert y == pytest.approx(-1.0)
        assert z == pytest.approx(-1.0)
        assert x == pytest.approx(1j)
        assert t == pytest.approx(1j)

    def test_parameters_unimodular_across_domain(self):
        for theta in np.linspace(HERMITIAN_THETA_MIN + 1e-6, math.pi, 40):
            y, z, x, t = hermitian_parameters(theta)
            for val in (y, z, x, t):
                assert abs(abs(val) - 1.0) < 1e-9

    def test_out_of_domain_rejected(self):
        for theta in (0.0, 0.5, -1.0, 9.0):
            with pytest.raises(ValueError):
                gen_hermitian(theta)

    def test_branch_failure_carries_both_moduli(self):
        # below HERMITIAN_THETA_MIN neither square-root branch is unimodular
        with pytest.raises(BranchFailureError) as info:
            hermitian_parameters(0.5)
        err = info.value
        assert err.name == "x, t"
        assert [type(m) for pair in err.moduli for m in pair] == [float] * 4
        assert err.moduli == (pytest.approx((0.3269, 0.3269), abs=1e-4),
                              pytest.approx((3.0592, 3.0592), abs=1e-4))
        assert "np.float64" not in str(err) and "0.3268" in str(err)


class TestSweepInvariant:
    def test_sixteen_point_parameter_sweep(self):
        mats = [gen_fourier(6), gen_tao(1), gen_tao(2)]
        mats += [gen_haagerup(np.exp(1j * phi)) for phi in np.linspace(0.1, 6.2, 8)]
        lo, hi = HERMITIAN_THETA_MIN + 1e-3, math.pi
        mats += [gen_hermitian(th) for th in np.linspace(lo, hi, 5)]
        assert len(mats) == 16
        for H in mats:
            rep = chm_residuals(H, 1e-10)
            assert rep.is_chm


def test_corpus_is_nineteen_chms(corpus):
    assert len(corpus) == 19
    for name, H in corpus:
        assert chm_residuals(H).is_chm, name
