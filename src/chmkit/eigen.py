"""Small dense complex eigensolver and spectrum utilities.

The solver is self-contained.  One core, ``_schur``, serves ``eigenvalues``
and ``eigenpairs``: it reduces the matrix to upper Hessenberg form by
Householder reflections and then runs single-shift (Wilkinson) QR iteration
in complex arithmetic, deflating one eigenvalue at a time: a complex Schur
form is triangular, so no 2x2 block needs its own solution (on a 2x2 block
the Wilkinson shift is one of its eigenvalues, and one sweep splits it).
The QR sweeps are Givens rotations on lists of lists of Python
``complex``: on matrices this small, numpy's cost per call on scalars and
1-row slices exceeds the arithmetic.  The core always accumulates its
reflections and rotations into the unitary Q of the Schur form
H = Q T Q^dag (``eigenvalues`` reads only T's diagonal), held as row lists
like the Hessenberg matrix: each reflection updates A and Q in one
(2n x n) array, and each Givens rotation of a sweep updates two entries of
every row of Q in the loop that rotates A's rows.  The eigenvectors of the
triangular T come by back substitution, and Q maps them to those of H (a
normal H has a diagonal T, and then Q's columns are the vectors).  Both
entry points scale H once, in ``_scaled_schur``, by the power of two that
brings its largest entry into [1/2, 1), so that no norm or product
underflows or overflows at extreme scales; the scaling is exact, so it
changes no result at moderate ones.  The solver is tuned for the n <= 16
matrices this package works with, not for large problems.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, as_matrix

#: eigenvalues closer than this are treated as one cluster for multiplicity
#: claims (an order above the solver's backward error)
CLUSTER_TOL = 1e-7

_EPS = float(np.finfo(np.float64).eps)

#: smallest pivot of the back substitution, as LAPACK's safe minimum over eps
_SAFE_MIN = float(np.finfo(np.float64).tiny) / _EPS

#: back substitution rescales a vector whose entries grow past this
_BIG = 1e100

#: the spectrum order rounds values to this fraction of the spectral radius:
#: far above rounding noise and far below ``CLUSTER_TOL``
_ORDER_GRID = 1e-9


class ConvergenceError(RuntimeError):
    """QR failed to converge, or no eigenvectors were found; carries partial results."""

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
    vals = np.asarray(values).tolist()
    grid = _ORDER_GRID * max(map(abs, vals)) or 1.0
    keys = [(-round(v.real / grid), -round(v.imag / grid)) for v in vals]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)


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

    @classmethod
    def _ordered(cls, values: np.ndarray) -> "Spectrum":
        """The spectrum of a non-empty, finite complex array that is already
        in Spectrum order (``eigenpairs``' values), without sorting it again."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "values", values)
        return spec

    @property
    def n(self) -> int:
        return self.values.size

    def __array__(self, dtype=None, copy=None):
        """The values, so that ``core._plain`` writes a spectrum as [[re, im], ...]."""
        return np.array(self.values, dtype=dtype, copy=copy)

    def to_csv(self) -> str:
        """One ``re,im`` line per value, 17 significant digits."""
        return "\n".join(f"{v.real:.17g},{v.imag:.17g}" for v in self.values) + "\n"


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with a unit-norm eigenvector and its residual norm."""

    value: complex
    vector: np.ndarray
    residual: float = 0.0


def _exponent(H: np.ndarray) -> int:
    """The ``math.frexp`` exponent e of H's largest entry: H / 2**e has its
    largest entry in [1/2, 1) (e = 0 for the zero matrix)."""
    return math.frexp(float(np.abs(H).max()))[1]


def _ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """The contiguous complex array z times 2**e, exactly (unless it leaves
    the normal range); z itself when e = 0."""
    return np.ldexp(z.view(np.float64), e).view(np.complex128) if e else z


def _hessenberg(H: np.ndarray, norm_h: float) -> tuple:
    """Unitary similarity reduction of ``H`` (Frobenius norm ``norm_h``) to
    upper Hessenberg form A = Q^dag H Q by Householder reflections.

    A column k whose part below the diagonal has norm at most
    eps max(1, ``norm_h``) gets no reflection and is set to zero there.  At
    k = 1 the bound is n times that, step 0's own rounding bound: a dephased
    CHM maps e_0 to the all-ones vector, so span{e_0, 1} (which holds the
    paper's constant eigenpairs) is invariant, and once step 0 maps the ones
    below H's corner onto e_1, column 1 below its subdiagonal is rounding
    alone.  Zeroing it splits those two eigenpairs off before the QR sweeps;
    every entry dropped is below the reduction's own backward error.

    Returns the rows of A and of Q, as lists of Python ``complex`` for the
    QR sweeps.  A and Q share one (2n x n) array, so that each reflection
    updates both from the right in one pass.
    """
    n = H.shape[0]
    X = np.eye(2 * n, n, -n, dtype=np.complex128)  # [H; I] once H is copied in
    X[:n] = H
    A = X[:n]
    skip = _EPS * max(1.0, norm_h)
    for k in range(n - 2):
        x = A[k + 1 :, k]
        nx = math.sqrt(np.vdot(x, x).real)
        if nx <= (n * skip if k == 1 else skip):
            x[:] = 0.0
            continue
        v = x.copy()
        pivot = complex(v[0])
        v[0] += (pivot / abs(pivot) if pivot != 0 else 1.0) * nx
        # scaled so that P = I - v v^dag is the reflection
        v *= math.sqrt(2.0 / np.vdot(v, v).real)
        vc = v.conj()
        A[k + 1 :, k:] -= v[:, None] * (vc @ A[k + 1 :, k:])
        X[:, k + 1 :] -= (X[:, k + 1 :] @ v)[:, None] * vc
        A[k + 2 :, k] = 0.0
    return A.tolist(), X[n:].tolist()


def _wilkinson_shift(a, b, c, d):
    """The eigenvalue of [[a, b], [c, d]] nearer d."""
    tr = a + d
    disc = cmath.sqrt((a - d) ** 2 + 4.0 * b * c)
    r1 = (tr + disc) / 2.0
    r2 = (tr - disc) / 2.0
    return r1 if abs(r1 - d) <= abs(r2 - d) else r2


def _negligible(a: list, k: int, floor: float) -> bool:
    """Deflation test for the subdiagonal entry a[k][k-1]: at most eps times
    its two diagonal neighbours plus ``floor`` (``_schur``'s eps ||H||_F)."""
    return abs(a[k][k - 1]) <= _EPS * (abs(a[k - 1][k - 1]) + abs(a[k][k])) + floor


def _qr_sweep(a: list, q: list, lo: int, hi: int, mu: complex) -> None:
    """One shifted QR sweep (Givens rotations) on the Hessenberg block
    lo..hi of the row lists ``a``, in place; each rotation also multiplies
    the matrix whose rows are the lists ``q`` from the right."""
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
    # R is upper triangular, so rotation i only reaches rows lo..i+1 of a;
    # it reaches every row of Q.  The rotation is written out in the loop,
    # not called: this is the solver's innermost loop
    for i, (c, s) in enumerate(rots, lo):
        cc, sc = c.conjugate(), s.conjugate()
        j = i + 1
        for row in a[lo : j + 1] + q:
            u, v = row[i], row[j]
            row[i] = c * u + s * v
            row[j] = cc * v - sc * u
    for i in range(lo, hi + 1):
        a[i][i] += mu


def _schur(H: np.ndarray, norm_h: float, e: int) -> tuple:
    """Eigenvalues of ``H`` (a complex array, in Schur-diagonal order) and
    the rows (as lists) of a unitary Q for which Q^dag H Q is upper
    triangular with those values on its diagonal.

    H comes from ``_scaled_schur``: it is the caller's matrix times 2**-e,
    and ``norm_h`` is its Frobenius norm (at least 1e-300).  Hessenberg
    reduction followed by Wilkinson-shifted QR.  Every block, 2x2 ones
    included, goes through ``_qr_sweep`` until the subdiagonal entry at its
    bottom passes ``_negligible`` with the floor eps ``norm_h`` (below the
    Householder reduction's backward error), which deflates one eigenvalue;
    a subdiagonal entry that ``_hessenberg`` zeroed splits the matrix at
    once.  Raises
    :class:`ConvergenceError` (carrying a complex array of the values found
    so far, times 2**e: in the caller's units) if more than 100 n QR steps
    are needed.
    """
    n = H.shape[0]
    a, q = _hessenberg(H, norm_h)
    floor = _EPS * norm_h
    hi = n - 1
    steps = 0
    stuck = 0
    while hi > 0:
        # deflate any negligible subdiagonal at the active edge
        if _negligible(a, hi, floor):
            a[hi][hi - 1] = 0j
            hi -= 1
            stuck = 0
            continue
        # find the top of the active unreduced block
        lo = hi - 1
        while lo > 0 and not _negligible(a, lo, floor):
            lo -= 1
        if lo > 0:
            a[lo][lo - 1] = 0j
        if steps >= 100 * n:
            raise ConvergenceError(
                f"QR failed to converge within {100 * n} iterations",
                partial=_ldexp(np.array([a[k][k] for k in range(hi + 1, n)], np.complex128), e),
            )
        if stuck and stuck % 12 == 0:
            # exceptional shift breaks symmetric cycling (e.g. Fourier-like input)
            mu = a[hi][hi] + abs(a[hi][hi - 1]) * (0.75 + 0.4330127018922193j)
        else:
            mu = _wilkinson_shift(a[hi - 1][hi - 1], a[hi - 1][hi], a[hi][hi - 1], a[hi][hi])
        _qr_sweep(a, q, lo, hi, mu)
        steps += 1
        stuck += 1
    return np.array([a[k][k] for k in range(n)], dtype=np.complex128), q


def _scaled_schur(H) -> tuple:
    """``as_matrix(H)`` times 2**-e with e = ``_exponent(H)``, e, the scaled
    matrix's Frobenius norm (at least 1e-300), and ``_schur`` of it: the one
    way ``eigenvalues`` and ``eigenpairs`` reach ``_schur``."""
    H = as_matrix(H)
    e = _exponent(H)
    H = _ldexp(H, -e)
    norm_h = max(float(np.linalg.norm(H)), 1e-300)
    return (H, e, norm_h, *_schur(H, norm_h, e))


def eigenvalues(H) -> Spectrum:
    """Full eigenvalue multiset of a square complex matrix.

    Hessenberg reduction followed by Wilkinson-shifted QR with deflation.
    Raises :class:`ConvergenceError` (carrying a complex array of the values
    found so far) if more than 100 n QR steps are needed.
    """
    _, e, _, eigs, _ = _scaled_schur(H)
    return Spectrum(_ldexp(eigs, e))


def cluster_indices(values: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> list:
    """Greedy clustering of eigenvalues; returns lists of indices per cluster.

    Values are visited in the deterministic Spectrum order; each value joins
    the nearest existing cluster mean within ``cluster_tol`` or starts a new
    cluster.
    """
    clusters: list[list[int]] = []
    sums: list[complex] = []
    for i, v in enumerate(np.asarray(values).tolist()):
        best, best_d = -1, math.inf
        for ci, total in enumerate(sums):
            d = abs(v - total / len(clusters[ci]))
            if d < best_d:
                best, best_d = ci, d
        if best >= 0 and best_d <= cluster_tol:
            clusters[best].append(i)
            sums[best] += v
        else:
            clusters.append([i])
            sums.append(v)
    return clusters


def _triangular_eigenvectors(T: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the upper triangle of ``T``, one per column, by
    back substitution: column k solves (T - t_kk I) y = 0 with y_k = 1.

    A pivot t_jj - t_kk smaller than eps |t_kk| is raised to that floor, as
    LAPACK's ztrevc does, so that equal diagonal entries give finite vectors;
    and, as ztrevc scales its right-hand side, y is scaled down before a
    division whose quotient would pass ``_BIG``, so that y_j stays at most
    ``_BIG`` (a defective block, where the pivot can be ``_SAFE_MIN``).
    """
    t = T.tolist()
    n = len(t)
    cols = []
    for k in range(n):
        tkk = t[k][k]
        small = max(_EPS * abs(tkk), _SAFE_MIN)
        y = [0j] * k + [1.0 + 0j]
        for j in range(k - 1, -1, -1):
            row = t[j]
            pivot = row[j] - tkk
            if abs(pivot) < small:
                pivot = small
            rhs = -sum([row[l] * y[l] for l in range(j + 1, k + 1)])
            if abs(rhs) > _BIG * abs(pivot):
                scale = _BIG * abs(pivot) / abs(rhs)
                y = [z * scale for z in y]
                rhs *= scale
            y[j] = rhs / pivot
        norm = math.hypot(*map(abs, y))
        cols.append([z / norm for z in y] + [0j] * (n - k - 1))
    return np.array(cols).T


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
    idx = np.abs(V).argmax(axis=0)
    piv = V[idx, np.arange(V.shape[1])] if V.ndim == 2 else V[idx]
    mag = np.abs(piv)
    return V * np.divide(piv.conj(), mag, out=np.ones_like(piv), where=mag > 0)


@functools.lru_cache(maxsize=32)
def _strict_upper(n: int) -> np.ndarray:
    """Flat positions of the entries above the diagonal of an n x n array;
    built once per n and shared, so the array is read-only."""
    rows, cols = np.triu_indices(n, 1)
    flat = rows * n + cols
    flat.flags.writeable = False
    return flat


def _acts_as_scalar(H: np.ndarray, basis: np.ndarray, norm_h: float) -> bool:
    """True when basis^dag H basis is diagonal to 1e-8 ``norm_h``: H maps the
    span of ``basis``, a cluster's, to itself as the cluster's one value."""
    B = basis.conj().T @ H @ basis
    return bool(np.linalg.norm(B - np.diag(np.diag(B))) <= 1e-8 * norm_h)


def eigenpairs(H) -> list:
    """Eigenpairs of ``H`` from its Schur form H = Q T Q^dag.

    T's eigenvectors come by back substitution, and Q maps them to H's.
    When no entry above T's diagonal exceeds 64 eps ||H||, H is normal to
    rounding and Q's columns are its eigenvectors, with residuals of that
    order, so the back substitution and the clusters' QR are skipped, and so
    is every cluster whose span has no real basis.
    Eigenvalues within ``CLUSTER_TOL`` of each other are treated as one
    cluster.  A cluster that acts on the span of its vectors as a scalar
    gets an orthonormal basis of that span, rotated to a real one when the
    span is closed under conjugation, so symmetric CHMs get real-alignable
    eigenvectors.  A cluster without scalar action keeps its individual
    vectors, which must be orthonormal (to 1e-6).  The pairs come in the
    order of :class:`Spectrum`.

    Intended for (near-)normal matrices such as scaled unitaries; defective
    input raises :class:`ConvergenceError`.  Every step works on H / 2**e
    with e = ``_exponent(H)``, from ``_scaled_schur``, so clusters and
    residual tests are relative to H's largest entry; the values and
    residuals are scaled back, and the vectors need no scaling.
    """
    H, e, norm_h, eigs, q = _scaled_schur(H)  # H / 2**e and its values
    Q = np.array(q)  # q holds Q's rows
    T = Q.conj().T @ H @ Q
    normal = np.abs(T.take(_strict_upper(T.shape[0]))).max(initial=0.0) <= 64 * _EPS * norm_h
    W = Q if normal else Q @ _triangular_eigenvectors(T)
    order = _spectrum_order(eigs)
    V = W[:, order]
    for members in cluster_indices(eigs[order]):
        if len(members) == 1:
            continue
        X = V[:, members]
        basis = X if normal else np.linalg.qr(X)[0]
        real = _realify_basis(basis)
        if real is not None:
            basis = real
        elif normal:
            continue  # Q's columns are the cluster's orthonormal vectors already
        if _acts_as_scalar(H, basis, norm_h):
            V[:, members] = basis
        elif np.linalg.norm(X.conj().T @ X - np.eye(len(members))) > 1e-6:
            raise ConvergenceError(
                "eigenvalue cluster with non-scalar action and no orthonormal "
                "eigenvectors; matrix is outside the supported (near-normal) class",
                partial=Spectrum(_ldexp(eigs, e)),
            )

    V = _canonical_phase(V)
    HV = H @ V
    lam = (V.conj() * HV).sum(axis=0)  # Rayleigh quotient refinement
    res = np.linalg.norm(HV - lam * V, axis=0)
    failed = np.flatnonzero(~(res <= 1e-6 * norm_h))
    lam, res = _ldexp(lam, e), np.ldexp(res, e)
    vectors = V.T.copy()
    pairs = [EigenPair(value=v, vector=x, residual=r)
             for v, x, r in zip(lam.tolist(), vectors, res.tolist())]
    if failed.size:
        j = int(failed[0])
        raise ConvergenceError(
            f"no eigenvector found for eigenvalue {pairs[j].value!r} "
            f"(residual {res[j]:.3e})",
            partial=pairs[:j],
        )
    return [pairs[j] for j in _spectrum_order(lam)]


def spectrum_distance(a: Spectrum, b: Spectrum) -> float:
    """Multiset distance: min over pairings of the max pairwise |a_i - b_pi(i)|.

    A bottleneck assignment: bisection over the n^2 distances |a_i - b_j| for
    the least one whose pairs within it hold a perfect matching, tested by
    augmenting paths (Kuhn).  The result is one of those distances, for any n.
    """
    if a.n != b.n:
        raise DimensionError(f"spectra have different sizes: {a.n} vs {b.n}")
    d = np.abs(a.values[:, None] - b.values[None, :])
    levels = np.unique(d)

    def matched(t: float) -> bool:
        near = [[j for j, x in enumerate(row) if x <= t] for row in d.tolist()]
        owner = [-1] * a.n  # owner[j]: the index of a paired with b_j

        def augment(i: int, seen: set) -> bool:
            for j in near[i]:
                if j not in seen:
                    seen.add(j)
                    if owner[j] < 0 or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False
        return all(augment(i, set()) for i in range(a.n))

    lo, hi = 0, levels.size - 1  # every pair is within levels[hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if matched(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])
