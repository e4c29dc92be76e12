import math

import numpy as np
import pytest

from chmkit.core import chm_residuals
from chmkit.families import gen_fourier, gen_haagerup, gen_tao
from chmkit import mub
from chmkit.mub import trio_check, unbiasedness_residual

SQRT6 = math.sqrt(6.0)
I6 = np.eye(6, dtype=complex)


class TestUnbiasednessResidual:
    def test_identity_vs_fourier(self):
        assert unbiasedness_residual(I6, gen_fourier(6) / SQRT6) < 1e-12

    def test_identity_vs_tao(self):
        assert unbiasedness_residual(I6, gen_tao(1) / SQRT6) < 1e-12

    def test_identity_vs_itself(self):
        r = unbiasedness_residual(I6, I6)
        assert r == pytest.approx(1.0 - 1.0 / SQRT6, abs=1e-14)

    def test_symmetric_in_arguments(self):
        A = gen_fourier(6) / SQRT6
        B = gen_haagerup(1j) / SQRT6
        assert abs(unbiasedness_residual(A, B) - unbiasedness_residual(B, A)) < 1e-14

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unbiasedness_residual(np.ones((6, 6)), I6)

    def test_chm_correspondence_both_directions(self):
        # CHM -> unbiased against identity
        for H in (gen_tao(1), gen_haagerup(np.exp(0.9j))):
            assert unbiasedness_residual(I6, H / SQRT6) < 1e-10
        # unitary unbiased against identity -> sqrt(6) U is a CHM
        rng = np.random.default_rng(6)
        U = gen_fourier(6) / SQRT6
        D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        V = D @ U  # still unitary, still flat moduli
        assert unbiasedness_residual(I6, V) < 1e-10
        assert chm_residuals(SQRT6 * V).is_chm


class TestTrioCheck:
    def test_three_fouriers(self):
        rep = trio_check(gen_fourier(6), gen_fourier(6), gen_fourier(6))
        assert rep.worst_pair == ("H1", "H2")
        assert rep.max_residual == pytest.approx(1.0 - 1.0 / SQRT6, abs=1e-14)
        # each CHM is still unbiased against the identity
        assert rep.residuals[("I", "H1")] < 1e-12
        wire = rep.to_dict()
        assert list(wire) == ["residuals", "max_residual", "worst_pair"]
        assert list(wire["residuals"]) == ["I|H1", "I|H2", "I|H3", "H1|H2", "H1|H3", "H2|H3"]
        assert wire["worst_pair"] == ["H1", "H2"]

    def test_tao_haagerup_fourier_recorded_value(self):
        rep = trio_check(gen_tao(1), gen_haagerup(1j), gen_fourier(6))
        assert rep.max_residual > 0.01  # no known trio; must be far from unbiased
        # frozen regression value for this specific triple
        assert rep.max_residual == pytest.approx(0.5917517095361371, abs=1e-12)

    def test_diagonal_scaling_stays_unbiased_to_identity(self):
        rng = np.random.default_rng(10)
        F = gen_fourier(6)
        D = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        rep = trio_check(F, D @ F, F)
        assert rep.residuals[("I", "H2")] < 1e-12
        assert rep.residuals[("H1", "H2")] >= 0.0

    def test_rejects_non_chm_input(self):
        with pytest.raises(ValueError):
            trio_check(np.ones((6, 6)), gen_fourier(6), gen_fourier(6))

    def test_each_input_is_checked_unitary_once(self, monkeypatch):
        checked = []
        require = mub._require_unitary

        def counted(M, label, tol):
            checked.append(label)
            require(M, label, tol)

        monkeypatch.setattr(mub, "_require_unitary", counted)
        F = gen_fourier(6)
        rep = trio_check(F, gen_tao(1), F)
        assert checked == ["H1/sqrt(d)", "H2/sqrt(d)", "H3/sqrt(d)"]
        # the unchecked pair residuals are unbiasedness_residual's values
        assert rep.residuals[("H1", "H2")] == unbiasedness_residual(F / SQRT6, gen_tao(1) / SQRT6)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
class TestTolerance:
    # non-unitary inputs: a NaN or infinite tol would skip the unitarity check
    def test_unbiasedness_residual_rejects_non_finite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            unbiasedness_residual(np.eye(2), [[1, 1], [0, 1]], tol=tol)

    def test_trio_check_rejects_non_finite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            trio_check(np.ones((6, 6)), gen_fourier(6), gen_fourier(6), tol=tol)
