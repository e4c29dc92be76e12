import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chmkit.eigen
from chmkit.eigen import (
    ConvergenceError,
    Spectrum,
    _EPS,
    _canonical_phase,
    _hessenberg,
    _ldexp,
    _scaled_schur,
    _triangular_eigenvectors,
    cluster_indices,
    eigenpairs,
    eigenvalues,
    spectrum_distance,
)
from chmkit.core import DimensionError, dephase
from chmkit.families import Q_VALUES, gen_fourier, gen_haagerup, gen_tao, standard_corpus

import oracles

SQRT6 = math.sqrt(6.0)

HAAGERUP_SPECTRUM = Spectrum(
    np.array(
        [
            SQRT6,
            -SQRT6,
            1j - math.sqrt(5.0),
            1j + math.sqrt(5.0),
            -1 - math.sqrt(5.0) * 1j,
            -1 + math.sqrt(5.0) * 1j,
        ]
    )
)

TAO_SPECTRUM = Spectrum(
    np.array(
        [
            SQRT6,
            -SQRT6,
            (3 + math.sqrt(15.0) * 1j) / 2,
            (3 + math.sqrt(15.0) * 1j) / 2,
            (3 - math.sqrt(15.0) * 1j) / 2,
            (3 - math.sqrt(15.0) * 1j) / 2,
        ]
    )
)

F6_SPECTRUM = Spectrum(np.array([SQRT6, SQRT6, -SQRT6, -SQRT6, 1j * SQRT6, -1j * SQRT6]))


def _schur_of(H) -> tuple:
    """The Schur values of ``H`` (in its units, Schur-diagonal order) and the
    rows of Q, as ``eigenvalues`` and ``eigenpairs`` get them."""
    _, e, _, values, q = _scaled_schur(H)
    return _ldexp(values, e), q


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([1.0, 2, 3, 4, 5, 6]).astype(complex))
        assert np.allclose(spec.values, [6, 5, 4, 3, 2, 1])

    def test_fourier_six(self):
        spec = eigenvalues(gen_fourier(6))
        assert spectrum_distance(spec, F6_SPECTRUM) < 1e-10
        # companion-root oracle: double roots are only sqrt(eps)-conditioned
        oracle = Spectrum(oracles.companion_spectrum(gen_fourier(6)))
        assert spectrum_distance(spec, oracle) < 1e-7

    @pytest.mark.parametrize("q", Q_VALUES, ids=[f"q{k}" for k in range(len(Q_VALUES))])
    def test_haagerup_spectrum_is_q_independent(self, q):
        spec = eigenvalues(gen_haagerup(q))
        assert spectrum_distance(spec, HAAGERUP_SPECTRUM) < 1e-10
        assert np.max(np.abs(np.abs(spec.values) - SQRT6)) < 1e-10

    def test_tao_spectrum(self):
        spec = eigenvalues(gen_tao(1))
        assert spectrum_distance(spec, TAO_SPECTRUM) < 1e-10
        assert abs(spec.values.sum() - 6.0) < 1e-10  # trace cross-check

    def test_random_matrices_match_companion_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            ours = eigenvalues(A)
            oracle = Spectrum(oracles.companion_spectrum(A))
            assert spectrum_distance(ours, oracle) < 1e-7

    def test_deterministic(self):
        A = gen_haagerup(np.exp(2j))
        assert np.array_equal(eigenvalues(A).values, eigenvalues(A).values)

    def test_trace_and_determinant_invariants(self, corpus):
        for name, H in corpus:
            spec = eigenvalues(H)
            assert abs(spec.values.sum() - np.trace(H)) < 1e-9, name
            assert abs(abs(np.prod(spec.values)) - 6.0**3) / 6.0**3 < 1e-8, name
            assert np.max(np.abs(np.abs(spec.values) - SQRT6)) < 1e-9, name

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_non_normal_matrices_match_companion_oracle(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(10):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            d = oracles.greedy_match_distance(eigenvalues(A).values, oracles.companion_spectrum(A))
            assert d <= 1e-9 * np.linalg.norm(A)

    def test_qr_failure_carries_the_values_found_so_far(self, monkeypatch):
        # the trailing 1x1 block deflates at once; with sweeps that do nothing
        # the leading 3x3 block never converges.  Both entry points report
        # the value in H's units, not in those of the scaled H / 2**3
        rng = np.random.default_rng(4)
        H = np.zeros((4, 4), dtype=complex)
        H[:3, :3] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H[3, 3] = 5.0
        monkeypatch.setattr(chmkit.eigen, "_qr_sweep", lambda a, q, lo, hi, mu: None)
        for solve in (eigenvalues, eigenpairs):
            with pytest.raises(ConvergenceError) as info:
                solve(H)
            partial = info.value.partial
            assert isinstance(partial, np.ndarray) and partial.dtype == np.complex128
            assert partial.tolist() == [5.0], solve.__name__


class TestEigenpairs:
    def test_identity(self):
        pairs = eigenpairs(np.eye(6, dtype=complex))
        assert all(abs(p.value - 1.0) < 1e-12 for p in pairs)
        V = np.column_stack([p.vector for p in pairs])
        assert np.max(np.abs(V.conj().T @ V - np.eye(6))) < 1e-10

    def test_constant_vector_of_dephased_chm(self):
        H = gen_haagerup(np.exp(0.7j))
        pairs = eigenpairs(H)
        plus = [p for p in pairs if abs(p.value - SQRT6) < 1e-8]
        assert len(plus) == 1
        v = plus[0].vector
        expected = np.array([1 + SQRT6, 1, 1, 1, 1, 1], dtype=complex)
        expected /= np.linalg.norm(expected)
        align = v * np.sign((v[1] * expected[1].conjugate()).real or 1.0)
        assert np.max(np.abs(np.abs(v) - expected.real)) < 1e-9
        assert np.max(np.abs(align - expected)) < 1e-8

    def test_residual_invariant_on_corpus(self, corpus):
        for name, H in corpus:
            norm_h = np.linalg.norm(H)
            for p in eigenpairs(H):
                assert p.residual <= 1e-8 * norm_h, name
                assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-12, name

    def test_tao_nonconstant_vectors_vanish_first_coordinate(self):
        pairs = eigenpairs(gen_tao(1))
        others = [p for p in pairs if min(abs(p.value - SQRT6), abs(p.value + SQRT6)) > 1e-6]
        assert len(others) == 4
        assert max(abs(p.vector[0]) for p in others) < 1e-9

    def test_tao_eigenvectors_are_real_alignable(self):
        # symmetric CHM: each eigenvector is a phase times a real vector
        for p in eigenpairs(gen_tao(1)):
            aligned = _canonical_phase(p.vector.copy())
            assert np.max(np.abs(aligned.imag)) < 1e-8

    def test_fourier_symmetric_also_real_alignable(self):
        # report-style check on another symmetric member
        worst = 0.0
        for p in eigenpairs(gen_fourier(6)):
            aligned = _canonical_phase(p.vector.copy())
            worst = max(worst, float(np.max(np.abs(aligned.imag))))
        assert worst < 1e-8

    def test_values_match_spectrum(self, corpus):
        for name, H in corpus:
            spec = eigenvalues(H)
            pair_spec = Spectrum(np.array([p.value for p in eigenpairs(H)]))
            assert spectrum_distance(spec, pair_spec) < 1e-9, name

    def test_near_double_eigenvalues_are_separated(self):
        # two eigenvalues 3.9e-8 apart form one cluster whose compressed 2x2
        # block spans its whole space without scalar action
        for seed in range(200):
            H = _scaled_unitary(seed, [0.3, 0.3 + 3.9e-8, 2.5, 3.5, 4.5, 5.5])
            pairs = eigenpairs(H)
            V = np.column_stack([p.vector for p in pairs])
            assert np.linalg.norm(V.conj().T @ V - np.eye(6)) < 1e-6, seed
            assert max(p.residual for p in pairs) <= 1e-6 * np.linalg.norm(H), seed

    @pytest.mark.parametrize("n", [2, 6])
    def test_jordan_block_raises(self, n):
        J = 2.0 * np.eye(n, dtype=complex) + np.eye(n, k=1)
        with pytest.raises(ConvergenceError):
            eigenpairs(J)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_nilpotent_jordan_block_raises(self, n):
        # every pivot of the back substitution is the safe minimum here
        with pytest.raises(ConvergenceError):
            eigenpairs(np.eye(n, k=1))

    def test_back_substitution_stays_finite_on_a_nilpotent_block(self):
        Y = _triangular_eigenvectors(np.eye(4, k=1))
        assert np.all(np.isfinite(Y))
        assert np.allclose(np.linalg.norm(Y, axis=0), 1.0)

    def test_non_normal_diagonalizable_input(self):
        # Schur vectors alone are not eigenvectors here
        rng = np.random.default_rng(41)
        R = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), 1)
        R += np.diag(np.arange(1.0, 7.0))
        S = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for H, values in ((np.array([[1.0, 1.0], [0.0, 2.0]]), [2.0, 1.0]),
                          (S @ R @ np.linalg.inv(S), np.arange(6.0, 0.0, -1.0))):
            pairs = eigenpairs(H)
            assert max(p.residual for p in pairs) <= 1e-8 * np.linalg.norm(H)
            assert np.max(np.abs(np.array([p.value for p in pairs]) - values)) < 1e-9

    @pytest.mark.parametrize("make", [lambda: gen_tao(1), lambda: _near_double_unitary()],
                             ids=["tao-double-eigenvalues", "near-double"])
    def test_repeated_calls_are_bit_identical(self, make):
        H = make()
        first, second = eigenpairs(H), eigenpairs(H)
        for a, b in zip(first, second, strict=True):
            assert a.value == b.value and a.residual == b.residual
            assert np.array_equal(a.vector, b.vector)


def _scaled_unitary(seed: int, phases) -> np.ndarray:
    """sqrt(n) Q diag(exp(i phases)) Q^dag with Q the QR factor of a complex
    Gaussian from ``default_rng(seed)``."""
    n = len(phases)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q @ np.diag(np.exp(1j * np.asarray(phases))) @ Q.conj().T * math.sqrt(n)


def _monomial(rng, n: int) -> np.ndarray:
    M = np.zeros((n, n), dtype=complex)
    M[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    return M


def _oracle_inputs(kind: str) -> list:
    if kind == "corpus":
        return [dephase(H)[0] for _, H in standard_corpus()]
    if kind == "scrambled":
        rng = np.random.default_rng(17)
        return [dephase(_monomial(rng, 6) @ H @ _monomial(rng, 6))[0]
                for _, H in standard_corpus()]
    if kind == "fourier":
        return [gen_fourier(n) for n in range(2, 17)]
    rng = np.random.default_rng(23)
    return [_scaled_unitary(int(rng.integers(1 << 30)), rng.uniform(0, 2 * math.pi, n))
            for n in range(2, 9) for _ in range(4)]


class TestBatchedAgainstOracle:
    """Schur-form eigenpairs against the one-cluster-at-a-time inverse iteration."""

    @pytest.mark.parametrize("kind", ["corpus", "scrambled", "fourier", "unitary"])
    def test_matches_per_cluster_loop(self, kind):
        for H in _oracle_inputs(kind):
            norm_h = np.linalg.norm(H)
            ours = eigenpairs(H)
            ref = oracles.eigenpairs_by_cluster(H)
            a = np.array([p.value for p in ours])
            b = np.array([p.value for p in ref])
            assert np.array_equal(a, Spectrum(a).values)  # the pairs come in Spectrum order
            assert oracles.greedy_match_distance(a, b) <= 1e-12 * norm_h
            assert max(p.residual for p in ours) <= 1e-6 * norm_h
            ref_clusters = cluster_indices(b)
            ref_means = [b[c].mean() for c in ref_clusters]
            for members in cluster_indices(a):
                k = int(np.argmin([abs(a[members].mean() - mu) for mu in ref_means]))
                assert len(ref_clusters[k]) == len(members)
                U = np.column_stack([ours[j].vector for j in members])
                W = np.column_stack([ref[j].vector for j in ref_clusters[k]])
                assert np.linalg.norm(U @ U.conj().T - W @ W.conj().T) <= 1e-10


def _near_double_unitary() -> np.ndarray:
    """sqrt(6) times a unitary whose two nearest eigenvalues are 9.6e-8 apart:
    one cluster that does not act on its span as a scalar."""
    return _scaled_unitary(102, [0.3, 0.3 + 3.9e-8, 2.5, 3.5, 4.5, 5.5])


class TestConstantPairSplit:
    """A dephased CHM keeps span{e_0, 1}, which holds its constant
    eigenpairs, invariant: the Householder reduction zeroes column 1 below
    its subdiagonal, and the QR sweeps never carry those two pairs."""

    @staticmethod
    def _dephased_chms() -> list:
        rng = np.random.default_rng(29)
        members = [H for _, H in standard_corpus()]
        scrambled = [dephase(_monomial(rng, 6) @ H @ _monomial(rng, 6))[0]
                     for H in members for _ in range(2)]
        return ([dephase(H)[0] for H in members] + scrambled
                + [gen_fourier(n) for n in range(4, 17)])

    def test_column_one_of_a_dephased_chm_is_zeroed(self):
        for H in self._dephased_chms():
            scaled, _, norm_h, *_ = _scaled_schur(H)
            a, _ = _hessenberg(scaled, norm_h)
            assert a[2][1] == 0

    def test_other_matrices_keep_their_reflection(self):
        # a dephased unimodular matrix that is no CHM: column 1 is far from 0
        rng = np.random.default_rng(43)
        H = dephase(np.exp(2j * math.pi * rng.random((6, 6))))[0]
        scaled, _, norm_h, *_ = _scaled_schur(H)
        a, _ = _hessenberg(scaled, norm_h)
        # the reflection maps column 1 below the diagonal onto +-|x| e_2
        assert abs(a[2][1]) > 1e6 * 6 * _EPS * norm_h
        ref = oracles.companion_spectrum(H)
        values = eigenvalues(H).values
        assert oracles.greedy_match_distance(values, ref) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", ["corpus", "scrambled", "fourier", "unitary"])
    def test_schur_form_is_backward_stable(self, kind):
        # independent of the column-list oracle, which mirrors the dropped
        # entries: at most 0.47 and 2.1 times n eps over these inputs
        for H in _oracle_inputs(kind):
            scaled, _, norm_h, _, q = _scaled_schur(H)
            n = scaled.shape[0]
            Q = np.array(q)  # q holds the rows of Q
            T = Q.conj().T @ scaled @ Q
            assert np.linalg.norm(np.tril(T, -1)) <= 8 * n * _EPS * norm_h
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 8 * n * _EPS


class TestSchurForm:
    @pytest.mark.parametrize("kind", ["corpus", "scrambled", "fourier", "unitary"])
    def test_q_is_unitary_and_triangularizes(self, kind):
        for H in _oracle_inputs(kind):
            n, norm_h = H.shape[0], np.linalg.norm(H)
            eigs, q = _schur_of(H)
            Q = np.array(q)  # q holds the rows of Q
            T = Q.conj().T @ H @ Q
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(n)) <= 1e-13
            assert np.max(np.abs(np.tril(T, -1))) <= 1e-12 * norm_h
            assert np.max(np.abs(np.diag(T) - eigs)) <= 1e-12 * norm_h

    def test_only_non_normal_input_needs_back_substitution(self, monkeypatch):
        calls = []
        solve = chmkit.eigen._triangular_eigenvectors

        def counted(T):
            calls.append(1)
            return solve(T)

        monkeypatch.setattr(chmkit.eigen, "_triangular_eigenvectors", counted)
        for H in _oracle_inputs("corpus") + _oracle_inputs("unitary"):
            eigenpairs(H)
        assert not calls  # normal input: the Schur vectors are the eigenvectors
        rng = np.random.default_rng(5)
        eigenpairs(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        assert len(calls) == 1

    def test_normal_input_checks_the_action_of_real_closable_clusters_only(self, monkeypatch):
        checked, closable = [], []
        check, realify = chmkit.eigen._acts_as_scalar, chmkit.eigen._realify_basis

        def counted_check(H, basis, norm_h):
            checked.append(basis.shape[1])
            return check(H, basis, norm_h)

        def counted_realify(X):
            real = realify(X)
            closable.append(real is not None)
            return real

        monkeypatch.setattr(chmkit.eigen, "_acts_as_scalar", counted_check)
        monkeypatch.setattr(chmkit.eigen, "_realify_basis", counted_realify)
        # a Haar-rotated double and triple: their spans have no real basis
        complex_clusters = _scaled_unitary(31, [0.3, 0.3, 2.0, 2.0, 2.0, 4.0])
        pairs = eigenpairs(complex_clusters)
        assert closable == [False, False] and not checked
        V = np.array([p.vector for p in pairs]).T
        assert np.linalg.norm(V.conj().T @ V - np.eye(6)) <= 1e-13
        assert max(p.residual for p in pairs) <= 1e-12
        # F6's clusters are closed under conjugation: each is checked and made real
        closable.clear()
        pairs = eigenpairs(gen_fourier(6))
        assert closable and all(closable) and len(checked) == len(closable)
        for p in pairs:
            assert np.max(np.abs(_canonical_phase(p.vector.copy()).imag)) < 1e-12


def _block_branch_input() -> np.ndarray:
    """A non-normal complex Gaussian: the QR iteration ends on a 2x2 block,
    which one more sweep reduces to two 1x1 blocks, and its eigenvectors need
    the back substitution."""
    rng = np.random.default_rng(5)
    return rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))


#: 2x2 inputs: a rotation (a conjugate pair) and a near-Jordan block
_TWO_BY_TWO = {
    "rotation": np.array([[0, -1], [1, 0]], dtype=complex),
    "near_jordan": np.array([[1, 1], [1e-10, 1]], dtype=complex),
}


def _count_sweeps(monkeypatch) -> list:
    """Patch ``_qr_sweep`` to record the size of each block it sweeps."""
    sizes = []
    sweep = chmkit.eigen._qr_sweep

    def counted(a, q, lo, hi, mu):
        sizes.append(hi - lo + 1)
        return sweep(a, q, lo, hi, mu)

    monkeypatch.setattr(chmkit.eigen, "_qr_sweep", counted)
    return sizes


class TestTwoByTwoEndings:
    """A 2x2 active block deflates through the ordinary sweep: its Wilkinson
    shift is one of its eigenvalues, so one sweep makes the subdiagonal
    negligible."""

    @pytest.mark.parametrize("kind, scale", [("block", 1.0)] + [
        (kind, scale) for kind in _TWO_BY_TWO for scale in (1.0, 1e-170, 1e200)])
    def test_values_and_schur_form(self, kind, scale, monkeypatch):
        H = _block_branch_input() if kind == "block" else _TWO_BY_TWO[kind] * scale
        n = H.shape[0]
        sizes = _count_sweeps(monkeypatch)
        values, q = _schur_of(H)
        assert sizes[-1] == 2  # the iteration ends on a 2x2 block
        ref = np.linalg.eigvals(H) if n == 2 else oracles.companion_spectrum(H)
        radius = np.abs(ref).max()
        assert oracles.greedy_match_distance(values, ref) <= 1e-12 * radius
        Q = np.array(q)  # q holds the rows of Q
        T = Q.conj().T @ H @ Q
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(n))) <= 1e-12
        # relative to the largest entry: H's Frobenius norm under- or overflows
        assert np.max(np.abs(np.tril(T, -1))) <= 1e-12 * np.abs(H).max()

    def test_sweeps_per_eigenpairs_call(self, monkeypatch):
        sizes = _count_sweeps(monkeypatch)
        for H in _oracle_inputs("corpus") + _oracle_inputs("fourier"):
            eigenpairs(H)
        # 182 when a 2x2 block was solved in closed form; 243 with one sweep
        # each; 219 once the constant eigenpairs split off before the sweeps
        assert len(sizes) <= 243
        # a sweep of a k x k block is k - 1 Givens rotations: 1081 while the
        # constant eigenpairs rode along in the sweeps, 715 once they split off
        assert sum(size - 1 for size in sizes) <= 750


class TestRowSchurVectors:
    """Q held as rows and reduced together with A gives, bit for bit, what
    the column-list accumulation gave."""

    KINDS = ["corpus", "scrambled", "fourier", "unitary", "block"]

    @staticmethod
    def _inputs(kind: str) -> list:
        return [_block_branch_input()] if kind == "block" else _oracle_inputs(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_schur_matches_column_lists(self, kind):
        for H in self._inputs(kind):
            values, q = _schur_of(H)
            ref_values, cols = oracles.schur_by_columns(H)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(np.array(q), np.array(cols).T)

    @pytest.mark.parametrize("kind", KINDS)
    def test_eigenvalues_match_column_lists(self, kind):
        # ``eigenvalues`` reads the diagonal of the Schur form that
        # ``eigenpairs`` builds, Q included
        for H in self._inputs(kind):
            ref = Spectrum(oracles.schur_by_columns(H)[0])
            assert np.array_equal(eigenvalues(H).values, ref.values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_eigenpairs_match_column_lists(self, kind):
        for H in self._inputs(kind):
            ours, ref = eigenpairs(H), oracles.eigenpairs_by_columns(H)
            assert [p.value for p in ours] == [p.value for p in ref]
            assert [p.residual for p in ours] == [p.residual for p in ref]
            assert np.array_equal(np.array([p.vector for p in ours]),
                                  np.array([p.vector for p in ref]))

    def test_eigenpairs_scales_once(self, monkeypatch):
        # the scaled H, its exponent and its norm are computed once per call,
        # by the front end that both entry points share
        calls = []
        exponent = chmkit.eigen._exponent

        def counted(H):
            calls.append(1)
            return exponent(H)

        monkeypatch.setattr(chmkit.eigen, "_exponent", counted)
        eigenpairs(gen_tao(1) * 3.0)
        assert len(calls) == 1
        eigenvalues(gen_tao(1) * 3.0)
        assert len(calls) == 2


class TestExtremeScales:
    """The solver works on H scaled by a power of two, so that no norm or
    product under- or overflows, and scaling by a power of two is exact."""

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160, 1e200])
    def test_values_and_residuals(self, scale):
        rng = np.random.default_rng(2026)
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        H = A * scale
        ref = np.linalg.eigvals(H)
        pairs = eigenpairs(H)
        for values in (eigenvalues(H).values, np.array([p.value for p in pairs])):
            assert oracles.greedy_match_distance(values, ref) <= 1e-12 * np.abs(ref).max()
        assert max(p.residual for p in pairs) <= 1e-6 * np.linalg.norm(A) * scale

    @pytest.mark.parametrize("k", [-40, -1, 3, 40])
    def test_powers_of_two_commute_with_the_solver(self, k):
        for H in _oracle_inputs("corpus") + _oracle_inputs("unitary"):
            assert np.array_equal(eigenvalues(H * 2.0**k).values, eigenvalues(H).values * 2.0**k)
            scaled, pairs = eigenpairs(H * 2.0**k), eigenpairs(H)
            assert [p.value for p in scaled] == [p.value * 2.0**k for p in pairs]
            assert all(np.array_equal(p.vector, q.vector) for p, q in zip(scaled, pairs))


_CENTRES = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _spectrum_pairs(draw):
    """Values a (n = 1..8, drawn from a few centres, so clusters tie), values b
    and a permutation of range(n).  b is a permuted copy of a with some values
    split off by 1e-9, or values of its own."""
    n = draw(st.integers(1, 8))
    centres = draw(st.lists(_CENTRES, min_size=1, max_size=n))
    a = np.array(draw(st.lists(st.sampled_from(centres), min_size=n, max_size=n)))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    if draw(st.booleans()):
        splits = st.sampled_from([0.0, 1e-9, -1e-9, 1e-9j, -1e-9j])
        b = a[perm] + np.array(draw(st.lists(splits, min_size=n, max_size=n)))
    else:
        b = np.array(draw(st.lists(st.sampled_from(centres) | _CENTRES, min_size=n, max_size=n)))
    return a, b, perm


class TestSpectrumDistance:
    def test_identical(self):
        s = eigenvalues(gen_tao(1))
        assert spectrum_distance(s, s) == 0.0

    def test_order_free(self):
        a = Spectrum(np.array([SQRT6, -SQRT6]))
        b = Spectrum(np.array([-SQRT6, SQRT6]))
        assert spectrum_distance(a, b) == 0.0

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            sa, sb = Spectrum(a), Spectrum(b)
            assert spectrum_distance(sa, sb) == pytest.approx(
                oracles.minimax_assignment(sa.values, sb.values), abs=1e-12
            )

    def test_tao_vs_fourier_positive(self):
        d = spectrum_distance(TAO_SPECTRUM, F6_SPECTRUM)
        assert d > 0.1
        assert d == pytest.approx(
            oracles.minimax_assignment(TAO_SPECTRUM.values, F6_SPECTRUM.values), abs=1e-12
        )

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            spectrum_distance(Spectrum(np.ones(2)), Spectrum(np.ones(3)))

    @given(_spectrum_pairs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_equals_the_brute_force_oracle(self, pair):
        # bit for bit, on tied clusters, 1e-9 splits and permuted copies
        a, b, perm = pair
        sa, sb = Spectrum(a), Spectrum(b)
        d = spectrum_distance(sa, sb)
        assert d == oracles.brute_force_distance(sa, sb)
        assert d == spectrum_distance(sb, sa)
        assert spectrum_distance(sa, Spectrum(a[perm])) == 0.0

    @pytest.mark.parametrize("n", range(9, 17))
    def test_fourier_spectra_above_eight(self, n):
        # each cluster of F_n's spectrum tied to one value, so that every
        # pairing within a cluster has the same distances and the greedy
        # oracle, exact for clusters this far apart, agrees up to its abs()
        values = eigenvalues(gen_fourier(n)).values
        for members in cluster_indices(values):
            values[members] = values[members[0]]
        spec = Spectrum(values)
        rng = np.random.default_rng(n)
        for _ in range(10):
            perm = rng.permutation(n)
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            copy = Spectrum(values[perm] + 1e-9 * noise)
            d = spectrum_distance(spec, copy)
            assert 0.0 < d < 1e-8
            greedy = oracles.greedy_match_distance(spec.values, copy.values)
            assert d == pytest.approx(greedy, rel=4 * _EPS, abs=0)
            assert d == spectrum_distance(copy, spec)
            assert spectrum_distance(spec, Spectrum(values[perm])) == 0.0


class TestSpectrumType:
    def test_sorted_descending(self):
        s = Spectrum(np.array([1.0, 3.0 + 1j, 3.0 - 1j, 2.0]))
        assert list(s.values) == [3.0 + 1j, 3.0 - 1j, 2.0, 1.0]

    def test_order_ignores_rounding_noise(self):
        # conjugate pairs share their real part and the doubles their value,
        # so an order by raw (re, im) follows the last bits
        base = np.array([(3 + math.sqrt(15.0) * 1j) / 2, -SQRT6, (3 - math.sqrt(15.0) * 1j) / 2,
                         SQRT6, (3 + math.sqrt(15.0) * 1j) / 2, (3 - math.sqrt(15.0) * 1j) / 2,
                         1j * SQRT6, -1j * SQRT6])
        expected = Spectrum(base).values
        rng = np.random.default_rng(9)
        eps = np.finfo(float).eps
        for _ in range(50):
            ulps = rng.integers(-4, 5, (2, base.size))
            noisy = base.real * (1 + ulps[0] * eps) + 1j * base.imag * (1 + ulps[1] * eps)
            assert np.max(np.abs(Spectrum(noisy).values - expected)) < 1e-14

    def test_csv_round_trip(self):
        s = Spectrum(np.array([1 / 3 + 1j * math.pi, -2.0]))
        lines = s.to_csv().splitlines()
        again = [complex(float(re), float(im)) for re, im in (line.split(",") for line in lines)]
        assert np.array_equal(s.values, np.array(again))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([np.nan + 0j]))
