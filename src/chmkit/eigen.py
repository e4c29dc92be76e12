"""Small dense complex eigensolver and spectrum utilities.

The solver is self-contained: Householder reduction to Hessenberg form
followed by single-shift (Wilkinson) QR iteration in complex arithmetic,
with eigenvectors recovered by shifted inverse iteration.  It is tuned for
the n <= 8 matrices this package works with, not for large problems.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, as_matrix

#: eigenvalues closer than this are treated as one cluster for multiplicity
#: claims (an order above the solver's backward error)
CLUSTER_TOL = 1e-7

_EPS = np.finfo(np.float64).eps


class ConvergenceError(RuntimeError):
    """QR or inverse iteration failed to converge; carries partial results."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues with a deterministic (re desc, im desc) order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).ravel()
        if vals.size == 0:
            raise DimensionError("spectrum must be non-empty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum contains NaN or Inf")
        order = np.lexsort((-vals.imag, -vals.real))
        object.__setattr__(self, "values", vals[order])

    @property
    def n(self) -> int:
        return self.values.size

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
    disc = np.sqrt(complex((a - d) ** 2 + 4.0 * b * c))
    r1 = (tr + disc) / 2.0
    r2 = (tr - disc) / 2.0
    if abs(r1 - d) <= abs(r2 - d):
        return r1, r2
    return r2, r1


def _qr_step(B: np.ndarray, mu: complex) -> None:
    """One shifted QR sweep (Givens based) on the Hessenberg block B, in place."""
    m = B.shape[0]
    idx = np.arange(m)
    B[idx, idx] -= mu
    rots = []
    for i in range(m - 1):
        a, b = B[i, i], B[i + 1, i]
        r = math.hypot(abs(a), abs(b))
        if r == 0.0:
            c, s = 1.0 + 0.0j, 0.0 + 0.0j
        else:
            c, s = a / r, b / r
        rows = np.array([c.conjugate() * B[i] + s.conjugate() * B[i + 1],
                         -s * B[i] + c * B[i + 1]])
        B[i], B[i + 1] = rows[0], rows[1]
        rots.append((c, s))
    for i, (c, s) in enumerate(rots):
        col_i = B[:, i].copy()
        col_j = B[:, i + 1].copy()
        B[:, i] = c * col_i + s * col_j
        B[:, i + 1] = -s.conjugate() * col_i + c.conjugate() * col_j
    B[idx, idx] += mu


def eigenvalues(H) -> Spectrum:
    """Full eigenvalue multiset of a square complex matrix.

    Hessenberg reduction followed by Wilkinson-shifted QR with deflation.
    Raises :class:`ConvergenceError` (carrying the values found so far) if
    more than 100 n QR steps are needed.
    """
    H = as_matrix(H)
    n = H.shape[0]
    if n == 1:
        return Spectrum(np.array([H[0, 0]]))

    A = _hessenberg(H)
    scale = max(np.linalg.norm(A), 1e-300)
    eigs = np.full(n, np.nan + 0j)
    hi = n - 1
    steps = 0
    stuck = 0
    while hi >= 0:
        if hi == 0:
            eigs[0] = A[0, 0]
            break
        # deflate any negligible subdiagonal at the active edge
        off = abs(A[hi, hi - 1])
        if off <= _EPS * (abs(A[hi - 1, hi - 1]) + abs(A[hi, hi])) + _EPS * scale * 1e-2:
            A[hi, hi - 1] = 0.0
            eigs[hi] = A[hi, hi]
            hi -= 1
            stuck = 0
            continue
        # find the top of the active unreduced block
        lo = hi
        while lo > 0:
            off = abs(A[lo, lo - 1])
            if off <= _EPS * (abs(A[lo - 1, lo - 1]) + abs(A[lo, lo])) + _EPS * scale * 1e-2:
                A[lo, lo - 1] = 0.0
                break
            lo -= 1
        if hi - lo == 1:
            near, far = _eig2(A[lo, lo], A[lo, hi], A[hi, lo], A[hi, hi])
            eigs[hi], eigs[lo] = near, far
            hi -= 2
            stuck = 0
            continue
        if steps >= 100 * n:
            raise ConvergenceError(
                f"QR failed to converge within {100 * n} iterations",
                partial=eigs[~np.isnan(eigs.real)],
            )
        if stuck and stuck % 12 == 0:
            # exceptional shift breaks symmetric cycling (e.g. Fourier-like input)
            mu = A[hi, hi] + abs(A[hi, hi - 1]) * (0.75 + 0.4330127018922193j)
        else:
            mu, _ = _eig2(A[hi - 1, hi - 1], A[hi - 1, hi], A[hi, hi - 1], A[hi, hi])
        _qr_step(A[lo : hi + 1, lo : hi + 1], mu)
        steps += 1
        stuck += 1
    return Spectrum(eigs)


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


def _start_block(n: int, m: int, salt: int) -> np.ndarray:
    rng = np.random.default_rng(0xC4A1 + salt)
    X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    q, _ = np.linalg.qr(X)
    return q


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


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    piv = v[k]
    if piv != 0:
        v = v * (piv.conjugate() / abs(piv))
    return v


def eigenpairs(H) -> list:
    """Eigenpairs of ``H`` via inverse iteration on the computed eigenvalues.

    Eigenvalues within ``CLUSTER_TOL`` of each other are treated as one
    cluster; for each cluster an orthonormal basis of the invariant subspace
    is returned (with a Rayleigh-Ritz rotation to individual eigenvectors
    when the cluster is not scalar).  When a degenerate eigenspace is closed
    under conjugation the basis is rotated to a real one, so symmetric CHMs
    get real-alignable eigenvectors.

    Intended for (near-)normal matrices such as scaled unitaries; defective
    input raises :class:`ConvergenceError` for the offending cluster.
    """
    H = as_matrix(H)
    n = H.shape[0]
    spec = eigenvalues(H)
    norm_h = max(np.linalg.norm(H), 1e-300)
    clusters = cluster_indices(spec.values)

    pairs: list[EigenPair] = []
    for ci, members in enumerate(clusters):
        vals = spec.values[members]
        m = len(vals)
        mu = complex(np.mean(vals))
        shift = mu + norm_h * 1e-11 * (1.0 + 0.5j)
        X = _start_block(n, m, salt=ci)
        M = H - shift * np.eye(n)
        for _ in range(8):
            try:
                Y = np.linalg.solve(M, X)
            except np.linalg.LinAlgError:
                shift += norm_h * 1e-9 * (0.7 + 0.9j)
                M = H - shift * np.eye(n)
                continue
            Xn, _ = np.linalg.qr(Y)
            delta = np.linalg.norm(Xn @ (Xn.conj().T @ X) - X)
            X = Xn
            if delta < 1e-14 * math.sqrt(m):
                break

        if m > 1:
            real_basis = _realify_basis(X)
            if real_basis is not None:
                X = real_basis
            B = X.conj().T @ H @ X
            off = np.linalg.norm(B - np.diag(np.diag(B)))
            if off > 1e-8 * norm_h:
                if m == n:
                    raise ConvergenceError(
                        "whole-spectrum cluster with non-scalar action; "
                        "matrix is outside the supported (near-normal) class",
                        partial=spec,
                    )
                # rotate to eigenvectors of the small compressed block
                sub = eigenpairs(B)
                W = np.column_stack([p.vector for p in sub])
                X = X @ W

        for j in range(m):
            v = _canonical_phase(X[:, j].copy())
            v = v / np.linalg.norm(v)
            lam = complex(np.vdot(v, H @ v))  # Rayleigh quotient refinement
            res = float(np.linalg.norm(H @ v - lam * v))
            if res > 1e-6 * norm_h:
                raise ConvergenceError(
                    f"inverse iteration failed for eigenvalue {lam!r} "
                    f"(residual {res:.3e})",
                    partial=pairs,
                )
            pairs.append(EigenPair(value=lam, vector=v, residual=res))

    order = np.lexsort(
        (
            [-p.value.imag for p in pairs],
            [-p.value.real for p in pairs],
        )
    )
    return [pairs[i] for i in order]


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
