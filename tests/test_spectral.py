import math

import numpy as np
import pytest

from chmkit.core import DimensionError
from chmkit.eigen import Spectrum, eigenvalues
from chmkit.families import gen_fourier, gen_haagerup, gen_hermitian, gen_tao
from chmkit.spectral import (
    constant_eigenvectors,
    multiplicity_profile,
    verify_constant_eigenpairs,
    verify_hermitian_equivalence,
    verify_matrix,
)

SQRT6 = math.sqrt(6.0)


class TestConstantEigenpairs:
    def test_haagerup_exp_i(self):
        rep = verify_constant_eigenpairs(gen_haagerup(np.exp(1j)))
        assert rep.residual_plus < 1e-10
        assert rep.residual_minus < 1e-10
        assert rep.max_first_coord < 1e-8
        assert not rep.vacuous

    def test_f2_plus_residual(self):
        rep = verify_constant_eigenpairs(np.array([[1, 1], [1, -1]], dtype=complex))
        assert rep.residual_plus < 1e-14
        assert rep.residual_minus < 1e-14

    def test_hermitian_family_is_vacuous(self):
        rep = verify_constant_eigenpairs(gen_hermitian(2.0))
        assert rep.vacuous
        assert rep.max_first_coord == 0.0

    def test_constant_vectors_are_orthogonal(self):
        v1, v2 = constant_eigenvectors(6)
        assert abs(np.vdot(v1, v2)) < 1e-12  # (1+r)(1-r) + 5 = 0 up to rounding

    def test_rejects_undephased(self):
        S = gen_tao(1)
        scaled = np.diag(np.exp(1j * np.arange(6))) @ S
        with pytest.raises(ValueError, match="dephased"):
            verify_constant_eigenpairs(scaled)

    def test_rejects_non_chm(self):
        with pytest.raises(ValueError, match="CHM"):
            verify_constant_eigenpairs(np.ones((6, 6), dtype=complex))

    def test_rejects_one_by_one(self):
        # at n = 1, v2 = 1 - sqrt(1) is the zero vector: nothing to certify
        with pytest.raises(DimensionError, match="n >= 2"):
            constant_eigenvectors(1)
        for verify in (verify_constant_eigenpairs, verify_matrix):
            with pytest.raises(DimensionError, match="n >= 2"):
                verify(np.ones((1, 1), dtype=complex))

    def test_corpus_wide(self, corpus):
        for name, H in corpus:
            rep = verify_constant_eigenpairs(H)
            assert rep.residual_plus < 1e-9, name
            assert rep.residual_minus < 1e-9, name
            assert rep.max_first_coord < 1e-8, name


class TestMultiplicityProfile:
    def test_hermitian_profile(self):
        assert multiplicity_profile(eigenvalues(gen_hermitian(1.6))) == [3, 3]

    def test_tao_profile(self):
        assert multiplicity_profile(eigenvalues(gen_tao(1))) == [2, 2, 1, 1]

    def test_haagerup_profile(self):
        assert multiplicity_profile(eigenvalues(gen_haagerup(1j))) == [1, 1, 1, 1, 1, 1]

    def test_cluster_tolerance_merges(self):
        vals = np.array([1.0, 1.0 + 5e-8, 2.0])
        assert multiplicity_profile(Spectrum(vals), cluster_tol=1e-7) == [2, 1]
        assert multiplicity_profile(Spectrum(vals), cluster_tol=1e-9) == [1, 1, 1]

    def test_accepts_plain_arrays(self):
        assert multiplicity_profile(np.array([2.0, 2.0, 1.0])) == [2, 1]


class TestHermitianEquivalence:
    def test_hermitian_member_all_true(self):
        rep = verify_hermitian_equivalence(gen_hermitian(2.0))
        assert rep.all_true
        assert rep.equivalence_holds
        assert rep.profile == (3, 3)

    def test_tao_all_false_but_consistent(self):
        rep = verify_hermitian_equivalence(gen_tao(1))
        assert not rep.is_hermitian
        assert not rep.has_triple_eigenvalue
        assert not rep.trace_zero
        assert not rep.spectrum_is_pm_sqrt6
        assert rep.equivalence_holds
        assert rep.counterexample is None

    def test_haagerup_all_false_but_consistent(self):
        rep = verify_hermitian_equivalence(gen_haagerup(1j))
        assert not rep.all_true
        assert rep.equivalence_holds

    def test_fourier_trace_zero_but_consistent(self):
        # F6 has trace 0 yet is neither Hermitian nor triple-clustered
        rep = verify_hermitian_equivalence(gen_fourier(6))
        assert rep.trace_zero
        assert not rep.is_hermitian
        assert not rep.has_triple_eigenvalue
        assert rep.equivalence_holds

    def test_corpus_no_counterexamples(self, corpus):
        all_true = []
        for name, H in corpus:
            rep = verify_hermitian_equivalence(H)
            assert rep.equivalence_holds, name
            if rep.all_true:
                all_true.append(name)
        assert all_true == [n for n, _ in corpus if n.startswith("hermitian")]

    def test_corpus_multiplicity_bounds(self, corpus):
        # no cluster of four or more; three only with the +-sqrt(6) spectrum
        for name, H in corpus:
            spec = eigenvalues(H)
            profile = multiplicity_profile(spec)
            assert profile[0] <= 3, name
            if profile[0] == 3:
                dev = np.min(
                    np.abs(spec.values[:, None] - np.array([SQRT6, -SQRT6])[None, :]), axis=1
                )
                assert np.max(dev) < 1e-9, name

    def test_requires_six_by_six(self):
        with pytest.raises(ValueError):
            verify_hermitian_equivalence(np.array([[1, 1], [1, -1]], dtype=complex))

    def test_json_payload(self):
        d = verify_hermitian_equivalence(gen_hermitian(2.9)).to_dict()
        assert d["is_hermitian"] and d["equivalence_holds"]
        assert d["profile"] == [3, 3]
