"""Small dense complex eigensolver and spectrum utilities.

The solver is self-contained.  ``eigenvalues`` reduces the matrix to upper
Hessenberg form by Householder reflections and then runs single-shift
(Wilkinson) QR iteration with deflation in complex arithmetic.  The QR
sweeps are Givens rotations on a list of lists of Python ``complex``: on
matrices this small, numpy's cost per call on scalars and 1-row slices
exceeds the arithmetic.  ``eigenpairs`` recovers eigenvectors by shifted
inverse iteration, run for all eigenvalue clusters of one size at once as a
stacked solve and QR.  A cluster that spans the whole space of a compressed
block but does not act on it as a scalar (two eigenvalues closer than
``CLUSTER_TOL``) is solved again one eigenvalue at a time.  The solver is
tuned for the n <= 16 matrices this package works with, not for large
problems.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, as_matrix

#: eigenvalues closer than this are treated as one cluster for multiplicity
#: claims (an order above the solver's backward error)
CLUSTER_TOL = 1e-7

_EPS = float(np.finfo(np.float64).eps)

#: the spectrum order rounds values to this fraction of the spectral radius:
#: far above rounding noise and far below ``CLUSTER_TOL``
_ORDER_GRID = 1e-9


class ConvergenceError(RuntimeError):
    """QR or inverse iteration failed to converge; carries partial results."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def _spectrum_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort ``values`` by (real desc, imag desc).

    Both parts are rounded to a grid of ``_ORDER_GRID`` times the spectral
    radius first, so values that are equal in exact arithmetic (the real
    parts of a conjugate pair, the members of a multiple eigenvalue) keep
    their given order instead of one set by rounding noise.
    """
    grid = _ORDER_GRID * float(np.max(np.abs(values))) or 1.0
    key = np.round(values / grid)
    return np.lexsort((-key.imag, -key.real))


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues in a deterministic (re desc, im desc) order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).ravel()
        if vals.size == 0:
            raise DimensionError("spectrum must be non-empty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum contains NaN or Inf")
        object.__setattr__(self, "values", vals[_spectrum_order(vals)])

    @property
    def n(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        """The values, so that ``core._plain`` writes a spectrum as [[re, im], ...]."""
        return np.array(self.values, dtype=dtype, copy=copy)

    def to_csv(self) -> str:
        """One ``re,im`` line per value, 17 significant digits."""
        return "\n".join(f"{v.real:.17g},{v.imag:.17g}" for v in self.values) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Spectrum":
        vals = []
        for line in text.strip().splitlines():
            re_s, im_s = line.split(",")
            vals.append(complex(float(re_s), float(im_s)))
        return cls(np.array(vals))


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit-norm eigenvector and its residual norm."""

    value: complex
    vector: np.ndarray
    residual: float = 0.0


def _hessenberg(A: np.ndarray) -> np.ndarray:
    """Unitary similarity reduction to upper Hessenberg form (in a copy)."""
    A = A.copy()
    n = A.shape[0]
    for k in range(n - 2):
        x = A[k + 1 :, k]
        nx = np.linalg.norm(x)
        if nx <= _EPS * max(1.0, np.linalg.norm(A)):
            continue
        v = x.copy()
        pivot = x[0]
        phase = pivot / abs(pivot) if pivot != 0 else 1.0
        v[0] += phase * nx
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v = v / nv
        # P = I - 2 v v^dag applied as a similarity on rows/cols k+1..n-1
        A[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ A[k + 1 :, k:])
        A[:, k + 1 :] -= 2.0 * np.outer(A[:, k + 1 :] @ v, v.conj())
        A[k + 2 :, k] = 0.0
    return A


def _eig2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]], the one nearer d first."""
    tr = a + d
    disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    r1 = (tr + disc) / 2.0
    r2 = (tr - disc) / 2.0
    if abs(r1 - d) <= abs(r2 - d):
        return r1, r2
    return r2, r1


def _negligible(a: list, k: int, floor: float) -> bool:
    """Deflation test for the subdiagonal entry a[k][k-1]."""
    return abs(a[k][k - 1]) <= _EPS * (abs(a[k - 1][k - 1]) + abs(a[k][k])) + floor


def _qr_sweep(a: list, lo: int, hi: int, mu: complex) -> None:
    """One shifted QR sweep (Givens rotations) on the Hessenberg block
    lo..hi of the row lists ``a``, in place."""
    for i in range(lo, hi + 1):
        a[i][i] -= mu
    rots = []
    for i in range(lo, hi):
        top, bot = a[i], a[i + 1]
        x, y = top[i], bot[i]
        r = math.hypot(abs(x), abs(y))
        c, s = (x / r, y / r) if r else (1.0 + 0j, 0j)
        cc, sc = c.conjugate(), s.conjugate()
        top[i], bot[i] = complex(r), 0j
        for j in range(i + 1, hi + 1):
            u, v = top[j], bot[j]
            top[j] = cc * u + sc * v
            bot[j] = c * v - s * u
        rots.append((c, s))
    # R is upper triangular, so rotation i only reaches rows lo..i+1
    for i, (c, s) in enumerate(rots, lo):
        cc, sc = c.conjugate(), s.conjugate()
        for k in range(lo, i + 2):
            row = a[k]
            u, v = row[i], row[i + 1]
            row[i] = c * u + s * v
            row[i + 1] = cc * v - sc * u
    for i in range(lo, hi + 1):
        a[i][i] += mu


def eigenvalues(H) -> Spectrum:
    """Full eigenvalue multiset of a square complex matrix.

    Hessenberg reduction followed by Wilkinson-shifted QR with deflation.
    Raises :class:`ConvergenceError` (carrying a complex array of the values
    found so far) if more than 100 n QR steps are needed.
    """
    H = as_matrix(H)
    n = H.shape[0]
    if n == 1:
        return Spectrum(np.array([H[0, 0]]))

    A = _hessenberg(H)
    floor = _EPS * max(float(np.linalg.norm(A)), 1e-300) * 1e-2
    a = A.tolist()
    eigs: list = [None] * n
    hi = n - 1
    steps = 0
    stuck = 0
    while hi >= 0:
        if hi == 0:
            eigs[0] = a[0][0]
            break
        # deflate any negligible subdiagonal at the active edge
        if _negligible(a, hi, floor):
            a[hi][hi - 1] = 0j
            eigs[hi] = a[hi][hi]
            hi -= 1
            stuck = 0
            continue
        # find the top of the active unreduced block
        lo = hi - 1
        while lo > 0 and not _negligible(a, lo, floor):
            lo -= 1
        if lo > 0:
            a[lo][lo - 1] = 0j
        if hi - lo == 1:
            near, far = _eig2(a[lo][lo], a[lo][hi], a[hi][lo], a[hi][hi])
            eigs[hi], eigs[lo] = near, far
            hi -= 2
            stuck = 0
            continue
        if steps >= 100 * n:
            raise ConvergenceError(
                f"QR failed to converge within {100 * n} iterations",
                partial=np.array([e for e in eigs if e is not None], dtype=np.complex128),
            )
        if stuck and stuck % 12 == 0:
            # exceptional shift breaks symmetric cycling (e.g. Fourier-like input)
            mu = a[hi][hi] + abs(a[hi][hi - 1]) * (0.75 + 0.4330127018922193j)
        else:
            mu, _ = _eig2(a[hi - 1][hi - 1], a[hi - 1][hi], a[hi][hi - 1], a[hi][hi])
        _qr_sweep(a, lo, hi, mu)
        steps += 1
        stuck += 1
    return Spectrum(np.array(eigs))


def cluster_indices(values: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> list:
    """Greedy clustering of eigenvalues; returns lists of indices per cluster.

    Values are visited in the deterministic Spectrum order; each value joins
    the nearest existing cluster mean within ``cluster_tol`` or starts a new
    cluster.
    """
    clusters: list[list[int]] = []
    means: list[complex] = []
    for i, v in enumerate(values):
        best, best_d = -1, np.inf
        for ci, mu in enumerate(means):
            d = abs(v - mu)
            if d < best_d:
                best, best_d = ci, d
        if best >= 0 and best_d <= cluster_tol:
            clusters[best].append(i)
            members = clusters[best]
            means[best] = complex(np.mean(values[members]))
        else:
            clusters.append([i])
            means.append(complex(v))
    return clusters


@functools.lru_cache(maxsize=256)
def _start_block(n: int, m: int, salt: int) -> np.ndarray:
    """Orthonormal n x m start block of inverse iteration for cluster ``salt``.

    It depends only on its arguments, so it is built once per process and
    shared; the array is read-only.
    """
    rng = np.random.default_rng(0xC4A1 + salt)
    X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    q, _ = np.linalg.qr(X)
    q.flags.writeable = False
    return q


def _inverse_iteration(H: np.ndarray, means: list, salts: list, m: int,
                       norm_h: float) -> np.ndarray:
    """Orthonormal bases of the invariant subspaces near k cluster means.

    Cluster i (size ``m``) starts from ``_start_block(n, m, salts[i])`` at the
    shift ``means[i]`` + 1e-11 ||H|| (1 + 0.5i).  All k run as one stacked
    solve and QR per step; a cluster leaves the stack once its subspace moves
    by less than 1e-14 sqrt(m), after at most 8 steps.  A singular stack
    nudges every shift in it by 1e-9 ||H|| (0.7 + 0.9i).  Returns a (k, n, m)
    array.
    """
    n = H.shape[0]
    eye = np.eye(n)
    out = np.stack([_start_block(n, m, salt=ci) for ci in salts])
    idx = np.arange(len(means))
    shifts = np.array(means, dtype=np.complex128) + norm_h * 1e-11 * (1.0 + 0.5j)
    M = H - shifts[:, None, None] * eye
    X = out
    for _ in range(8):
        try:
            Y = np.linalg.solve(M, X)
        except np.linalg.LinAlgError:
            shifts += norm_h * 1e-9 * (0.7 + 0.9j)
            M = H - shifts[:, None, None] * eye
            continue
        Xn, _ = np.linalg.qr(Y)
        delta = np.linalg.norm(Xn @ (Xn.conj().transpose(0, 2, 1) @ X) - X, axis=(1, 2))
        out[idx] = X = Xn
        going = ~(delta < 1e-14 * math.sqrt(m))
        if not going.any():
            break
        idx, shifts, M, X = idx[going], shifts[going], M[going], X[going]
    return out


def _realify_basis(X: np.ndarray) -> np.ndarray | None:
    """Return a real orthonormal basis of span(X) when one exists, else None.

    The span admits a real basis iff it is closed under conjugation, i.e. the
    orthogonal projector X X^dag is (numerically) real.
    """
    P = X @ X.conj().T
    if np.max(np.abs(P.imag)) > 1e-9:
        return None
    m = X.shape[1]
    w, V = np.linalg.eigh(P.real)
    basis = V[:, np.argsort(w)[::-1][:m]].astype(np.complex128)
    return basis


def _canonical_phase(V: np.ndarray) -> np.ndarray:
    """Rotate the vector V, or each column of the matrix V, so that its
    largest-modulus entry is real and positive."""
    piv = np.take_along_axis(V, np.argmax(np.abs(V), axis=0)[None], axis=0)[0]
    mag = np.abs(piv)
    return V * np.where(mag > 0, piv.conj() / np.where(mag > 0, mag, 1.0), 1.0)


def eigenpairs(H) -> list:
    """Eigenpairs of ``H`` via inverse iteration on the computed eigenvalues.

    Eigenvalues within ``CLUSTER_TOL`` of each other are treated as one
    cluster; for each cluster an orthonormal basis of the invariant subspace
    is returned (with a Rayleigh-Ritz rotation to individual eigenvectors
    when the cluster is not scalar).  When a degenerate eigenspace is closed
    under conjugation the basis is rotated to a real one, so symmetric CHMs
    get real-alignable eigenvectors.  A cluster that spans the whole space
    without scalar action is solved one eigenvalue at a time.  The pairs
    come in the order of :class:`Spectrum`.

    Intended for (near-)normal matrices such as scaled unitaries; defective
    input raises :class:`ConvergenceError`.
    """
    H = as_matrix(H)
    n = H.shape[0]
    spec = eigenvalues(H)
    norm_h = max(float(np.linalg.norm(H)), 1e-300)
    clusters = cluster_indices(spec.values)

    by_size: dict[int, list[int]] = {}
    for ci, members in enumerate(clusters):
        by_size.setdefault(len(members), []).append(ci)
    bases: list = [None] * len(clusters)
    for m, cis in by_size.items():
        means = [complex(np.mean(spec.values[clusters[ci]])) for ci in cis]
        for ci, X in zip(cis, _inverse_iteration(H, means, cis, m, norm_h)):
            bases[ci] = X

    for ci, members in enumerate(clusters):
        m = len(members)
        if m == 1:
            continue
        X = _realify_basis(bases[ci])
        if X is None:
            X = bases[ci]
        B = X.conj().T @ H @ X
        if np.linalg.norm(B - np.diag(np.diag(B))) > 1e-8 * norm_h:
            if m == n:
                X = _separate(H, spec, norm_h)
            else:
                # rotate to eigenvectors of the small compressed block
                sub = eigenpairs(B)
                X = X @ np.column_stack([p.vector for p in sub])
        bases[ci] = X

    V = _canonical_phase(np.concatenate(bases, axis=1))
    V = V / np.linalg.norm(V, axis=0)
    HV = H @ V
    lam = np.sum(V.conj() * HV, axis=0)  # Rayleigh quotient refinement
    res = np.linalg.norm(HV - lam * V, axis=0)
    vectors = V.T.copy()
    pairs = [EigenPair(value=complex(lam[j]), vector=vectors[j], residual=float(res[j]))
             for j in range(n)]
    failed = np.flatnonzero(res > 1e-6 * norm_h)
    if failed.size:
        j = int(failed[0])
        raise ConvergenceError(
            f"inverse iteration failed for eigenvalue {complex(lam[j])!r} "
            f"(residual {res[j]:.3e})",
            partial=pairs[:j],
        )
    return [pairs[j] for j in _spectrum_order(lam)]


def _separate(H: np.ndarray, spec: Spectrum, norm_h: float) -> np.ndarray:
    """Eigenvectors of a matrix whose spectrum is one cluster without scalar
    action, by inverse iteration at each eigenvalue on its own.

    For a normal matrix the n vectors are orthonormal; when they are not
    (to 1e-6) the cluster is a defective block.
    """
    n = H.shape[0]
    X = _inverse_iteration(H, list(spec.values), range(n), 1, norm_h)[:, :, 0].T
    if np.linalg.norm(X.conj().T @ X - np.eye(n)) > 1e-6:
        raise ConvergenceError(
            "whole-spectrum cluster with non-scalar action and no orthonormal "
            "eigenvectors; matrix is outside the supported (near-normal) class",
            partial=spec,
        )
    return X


@functools.lru_cache(maxsize=8)
def _all_perms(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def spectrum_distance(a: Spectrum, b: Spectrum) -> float:
    """Multiset distance: min over pairings of the max pairwise |a_i - b_pi(i)|.

    Brute-force over all n! assignments; restricted to n <= 8.
    """
    if a.n != b.n:
        raise DimensionError(f"spectra have different sizes: {a.n} vs {b.n}")
    if a.n > 8:
        raise DimensionError("brute-force assignment is limited to n <= 8")
    perms = _all_perms(a.n)
    diffs = np.abs(a.values[None, :] - b.values[perms])
    return float(diffs.max(axis=1).min())
