"""Independent reference computations used only by the tests.

These deliberately avoid the code paths they check: the characteristic
polynomial comes from trace recursion (Faddeev-LeVerrier) and is rooted
through numpy's companion-matrix machinery, determinants are Laplace
expansions, and the assignment distance is a plain recursive search.
The inverse-iteration oracle is the eigensolver's earlier one-cluster-at-a-
time loop, with its own start blocks; it shares only ``eigenvalues`` and
the small helpers with the Schur-form ``eigenpairs`` it checks.  The
column-list Schur oracle is the solver as it was before Q was held as rows:
Q reduced in its own array and accumulated as column lists, a new pair of
lists per rotation; it shares the QR driver's helpers and the eigenvector
steps after the Schur form, and the solver must match it bit for bit.  The
n = 6 multiplicity oracle re-sorts the remaining values as a ``Spectrum``
before it clusters them, as ``verify_matrix`` once did.  The search's
construction oracle builds a matrix from the paper's projectors and an SVD
basis of their complement, none of which the search uses.  The search's
residual and Jacobian oracle is their first form: Lam entry by entry, the
interior as a sum of outer products and each column of J from the change
of the interior that one parameter makes; the descent oracle is the
Levenberg-Marquardt loop as first written, with a Jacobian at every trial,
and the secant term of the large-residual tail added to its damped matrix
as a sum (without it, the Gauss-Newton loop as first written).
The placement oracle deals +-sqrt(n) into every ordered pair of blocks and
drops the repeats after the fact, and the hinge oracle reads the clusters
off the values alone.  The rank-one
scan oracle is the scan without its 2x2-minor screen: every block through
one batched SVD and ``_rank``.  The
n = 5 profiles are ground truth from the literature, not a computation.
The rotation gadget needs no oracle here: its residuals are exact rational
identities, and its test cross-checks them against plain numpy floats.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from chmkit.core import SQRT6, _rank, as_matrix
from chmkit.eigen import (
    _EPS, CLUSTER_TOL, ConvergenceError, EigenPair, Spectrum, _canonical_phase,
    _eig2, _exponent, _ldexp, _negligible, _realify_basis, _spectrum_order,
    _triangular_eigenvectors, cluster_indices, eigenvalues,
)
from chmkit.search import (
    FTOL, HERMITIAN_BARRIER, SECANT_CURVATURE, SECANT_FLOOR, SECANT_MODEL, SECANT_SHARE,
    _jacobian, _residual, _secant_update, _step,
)
from chmkit.spectral import multiplicity_profile


#: the multiplicity profiles of the dephased 5x5 CHMs: every 5x5 CHM is
#: equivalent to F5 (Haagerup 1996, "Orthogonal maximal abelian
#: *-subalgebras of the n x n matrices and cyclic n-roots"), and the
#: dephased forms in F5's orbit have exactly these two profiles
N5_REALIZABLE_PROFILES = frozenset({(2, 1, 1, 1), (1, 1, 1, 1, 1)})


def charpoly_coeffs(A: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first."""
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def companion_spectrum(A: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial (via np.roots)."""
    return np.roots(charpoly_coeffs(A))


def laplace_det(M: np.ndarray) -> complex:
    """Determinant by cofactor expansion (fine for the tiny oracle matrices)."""
    n = M.shape[0]
    if n == 1:
        return complex(M[0, 0])
    if n == 2:
        return complex(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    total = 0.0 + 0.0j
    rest = M[1:, :]
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        total += ((-1) ** j) * M[0, j] * laplace_det(rest[:, cols])
    return total


def minor_rank(M: np.ndarray, tol: float = 1e-6) -> int:
    """Largest k with a k x k minor of magnitude above tol * scale^k."""
    M = np.asarray(M, dtype=np.complex128)
    m, n = M.shape
    scale = max(float(np.max(np.abs(M))), 1e-300)
    for k in range(min(m, n), 0, -1):
        thresh = tol * scale**k
        for rows in itertools.combinations(range(m), k):
            sub_rows = M[list(rows), :]
            for cols in itertools.combinations(range(n), k):
                if abs(laplace_det(sub_rows[:, list(cols)])) > thresh:
                    return k
    return 0


def minimax_assignment(a: np.ndarray, b: np.ndarray) -> float:
    """Min over pairings of the max |a_i - b_pi(i)|, by explicit recursion."""
    n = len(a)
    best = [np.inf]

    def rec(i: int, used: int, cur: float) -> None:
        if cur >= best[0]:
            return
        if i == n:
            best[0] = cur
            return
        for j in range(n):
            if not used & (1 << j):
                rec(i + 1, used | (1 << j), max(cur, abs(a[i] - b[j])))

    rec(0, 0, 0.0)
    return float(best[0])


def greedy_match_distance(a, b) -> float:
    """Max |a_i - b_j| when each a_i, in turn, takes the nearest b_j not yet
    taken.  It equals the multiset distance when every cluster of values is
    narrower than half its distance to any other, and works for any n."""
    rest = list(b)
    worst = 0.0
    for v in a:
        j = min(range(len(rest)), key=lambda k: abs(v - rest[k]))
        worst = max(worst, abs(v - rest.pop(j)))
    return worst


def start_block(n: int, m: int, salt: int) -> np.ndarray:
    """Orthonormal n x m start block of inverse iteration for cluster ``salt``."""
    rng = np.random.default_rng(0xC4A1 + salt)
    X = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return np.linalg.qr(X)[0]


def eigenpairs_by_cluster(H) -> list:
    """Eigenpairs by shifted inverse iteration run for one cluster at a time.

    Each cluster starts from ``start_block`` at its mean plus
    1e-11 ||H|| (1 + 0.5i) and stops after 8 steps or once its subspace
    moves by less than 1e-14 sqrt(m); a singular solve nudges the shift.
    Clusters get the real-basis rotation of ``chmkit.eigen.eigenpairs`` and
    a Rayleigh-Ritz recursion when not scalar; a whole-spectrum cluster
    without scalar action raises.  Pairs come in cluster order.
    """
    H = np.asarray(H, dtype=np.complex128)
    n = H.shape[0]
    spec = eigenvalues(H)
    norm_h = max(np.linalg.norm(H), 1e-300)
    pairs = []
    for ci, members in enumerate(cluster_indices(spec.values, CLUSTER_TOL)):
        m = len(members)
        shift = complex(np.mean(spec.values[members])) + norm_h * 1e-11 * (1.0 + 0.5j)
        X = start_block(n, m, salt=ci)
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
            if np.linalg.norm(B - np.diag(np.diag(B))) > 1e-8 * norm_h:
                if m == n:
                    raise ConvergenceError("whole-spectrum cluster with non-scalar action")
                sub = eigenpairs_by_cluster(B)
                X = X @ np.column_stack([p.vector for p in sub])
        for j in range(m):
            v = _canonical_phase(X[:, j].copy())
            v = v / np.linalg.norm(v)
            lam = complex(np.vdot(v, H @ v))
            res = float(np.linalg.norm(H @ v - lam * v))
            if res > 1e-6 * norm_h:
                raise ConvergenceError(f"inverse iteration failed for eigenvalue {lam!r}")
            pairs.append(EigenPair(value=lam, vector=v, residual=res))
    return pairs


def _hessenberg_by_columns(H: np.ndarray) -> tuple:
    """Householder reduction A = Q^dag H Q with Q in its own array; returns
    the rows of A and the columns of Q as lists of Python ``complex``."""
    A = H.copy()
    n = A.shape[0]
    Q = np.eye(n, dtype=np.complex128)
    skip = _EPS * max(1.0, float(np.linalg.norm(H)))
    for k in range(n - 2):
        x = A[k + 1 :, k]
        nx = math.sqrt(np.vdot(x, x).real)
        if nx <= skip:
            continue
        v = x.copy()
        pivot = complex(v[0])
        v[0] += (pivot / abs(pivot) if pivot != 0 else 1.0) * nx
        v *= math.sqrt(2.0 / np.vdot(v, v).real)
        vc = v.conj()
        A[k + 1 :, k:] -= v[:, None] * (vc @ A[k + 1 :, k:])
        A[:, k + 1 :] -= (A[:, k + 1 :] @ v)[:, None] * vc
        Q[:, k + 1 :] -= (Q[:, k + 1 :] @ v)[:, None] * vc
        A[k + 2 :, k] = 0.0
    return A.tolist(), Q.T.tolist()


def _rotate_columns(cols: list, i: int, c: complex, s: complex) -> None:
    """Columns i, i+1 (the lists ``cols[i]``, ``cols[i + 1]``) times the
    rotation [[c, -conj(s)], [s, conj(c)]], as two new lists."""
    cc, sc = c.conjugate(), s.conjugate()
    u, v = cols[i], cols[i + 1]
    cols[i] = [c * x + s * y for x, y in zip(u, v)]
    cols[i + 1] = [cc * y - sc * x for x, y in zip(u, v)]


def _qr_sweep_by_columns(a: list, q: list, lo: int, hi: int, mu: complex) -> None:
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
    for i, (c, s) in enumerate(rots, lo):
        cc, sc = c.conjugate(), s.conjugate()
        for k in range(lo, i + 2):
            row = a[k]
            u, v = row[i], row[i + 1]
            row[i] = c * u + s * v
            row[i + 1] = cc * v - sc * u
        _rotate_columns(q, i, c, s)
    for i in range(lo, hi + 1):
        a[i][i] += mu


def schur_by_columns(H) -> tuple:
    """The eigenvalues (in Schur-diagonal order) and the columns of Q of
    ``chmkit.eigen._schur(H, True)``, computed with Q as column lists."""
    H = np.asarray(H, dtype=np.complex128)
    n, e = H.shape[0], _exponent(H)
    H = _ldexp(H, -e)
    a, q = _hessenberg_by_columns(H)
    floor = _EPS * max(float(np.linalg.norm(H)), 1e-300) * 1e-2
    eigs: list = [None] * n
    hi, steps, stuck = n - 1, 0, 0
    while hi >= 0:
        if hi == 0:
            eigs[0] = a[0][0]
            break
        if _negligible(a, hi, floor):
            a[hi][hi - 1] = 0j
            eigs[hi] = a[hi][hi]
            hi -= 1
            stuck = 0
            continue
        lo = hi - 1
        while lo > 0 and not _negligible(a, lo, floor):
            lo -= 1
        if lo > 0:
            a[lo][lo - 1] = 0j
        if hi - lo == 1:
            b11, b12, b21, b22 = a[lo][lo], a[lo][hi], a[hi][lo], a[hi][hi]
            near, far = _eig2(b11, b12, b21, b22)
            eigs[hi], eigs[lo] = near, far
            x, y = b12, far - b11
            if abs(x) + abs(y) < abs(far - b22) + abs(b21):
                x, y = far - b22, b21
            r = math.hypot(abs(x), abs(y))
            if r:
                _rotate_columns(q, lo, x / r, y / r)
            hi -= 2
            stuck = 0
            continue
        if steps >= 100 * n:
            raise ConvergenceError(f"QR failed to converge within {100 * n} iterations")
        if stuck and stuck % 12 == 0:
            mu = a[hi][hi] + abs(a[hi][hi - 1]) * (0.75 + 0.4330127018922193j)
        else:
            mu, _ = _eig2(a[hi - 1][hi - 1], a[hi - 1][hi], a[hi][hi - 1], a[hi][hi])
        _qr_sweep_by_columns(a, q, lo, hi, mu)
        steps += 1
        stuck += 1
    return _ldexp(np.array(eigs, dtype=np.complex128), e), q


def eigenpairs_by_columns(H) -> list:
    """``chmkit.eigen.eigenpairs`` with its Schur form from
    ``schur_by_columns`` and Q^T formed from those columns."""
    H = as_matrix(H)
    e = _exponent(H)
    H = _ldexp(H, -e)
    eigs, q = schur_by_columns(H)
    norm_h = max(float(np.linalg.norm(H)), 1e-300)
    Qt = np.array(q)  # Q transposed
    T = Qt.conj() @ H @ Qt.T
    normal = np.abs(np.triu(T, 1)).max(initial=0.0) <= 64 * _EPS * norm_h
    W = Qt.T if normal else Qt.T @ _triangular_eigenvectors(T)
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
        B = basis.conj().T @ H @ basis
        if np.linalg.norm(B - np.diag(np.diag(B))) <= 1e-8 * norm_h:
            V[:, members] = basis
        elif np.linalg.norm(X.conj().T @ X - np.eye(len(members))) > 1e-6:
            raise ConvergenceError("eigenvalue cluster with non-scalar action")
    V = _canonical_phase(V)
    HV = H @ V
    lam = (V.conj() * HV).sum(axis=0)
    res = np.linalg.norm(HV - lam * V, axis=0)
    if not np.all(res <= 1e-6 * norm_h):
        raise ConvergenceError("no eigenvector found")
    lam, res = _ldexp(lam, e), np.ldexp(res, e)
    pairs = [EigenPair(value=v, vector=x, residual=r)
             for v, x, r in zip(lam.tolist(), V.T.copy(), res.tolist())]
    return [pairs[j] for j in _spectrum_order(lam)]


def n6_multiplicity_holds_by_spectrum(values) -> bool:
    """At n = 6, with one copy each of +-sqrt 6 set aside, no eigenvalue
    occurs more than twice; the rest is sorted again as a ``Spectrum``."""
    rest = np.asarray(values, dtype=np.complex128)
    for c in (SQRT6, -SQRT6):
        rest = np.delete(rest, np.argmin(np.abs(rest - c)))
    return multiplicity_profile(Spectrum(rest))[0] <= 2


def is_rank_one_by_minors(M: np.ndarray, tol: float = 1e-8) -> bool:
    """True when every 2x2 minor vanishes relative to the largest entry."""
    M = np.asarray(M, dtype=np.complex128)
    scale = max(float(np.max(np.abs(M))), 1e-300)
    m, n = M.shape
    for r1, r2 in itertools.combinations(range(m), 2):
        for c1, c2 in itertools.combinations(range(n), 2):
            minor = M[r1, c1] * M[r2, c2] - M[r1, c2] * M[r2, c1]
            if abs(minor) > tol * scale**2:
                return False
    return True


def rank_one_scan_unscreened(H, r: int, c: int, tol: float = 1e-8) -> list:
    """``rank_one_submatrix_scan`` in its first form: all C(nr,r) C(nc,c)
    blocks gathered into one array, one batched SVD, and a witness wherever
    ``_rank`` counts exactly one singular value."""
    H = as_matrix(H, square=False)
    nr, nc = H.shape
    row_sets = list(itertools.combinations(range(nr), r))
    col_sets = list(itertools.combinations(range(nc), c))
    rows, cols = np.array(row_sets), np.array(col_sets)
    blocks = H[rows[:, None, :, None], cols[None, :, None, :]]  # [R, C, r, c]
    sv = np.linalg.svd(blocks, compute_uv=False)  # [R, C, min(r, c)], descending
    rank_one = _rank(sv, tol) == 1
    return [(row_sets[i], col_sets[j]) for i, j in zip(*np.nonzero(rank_one))]


def cluster_profile(values, tol: float) -> list:
    """Descending sizes of the connected components of values that lie
    within ``tol`` of each other (single linkage)."""
    values = list(values)
    label = list(range(len(values)))
    for i, j in itertools.combinations(range(len(values)), 2):
        if abs(values[i] - values[j]) <= tol and label[i] != label[j]:
            old = label[j]
            label = [label[i] if x == old else x for x in label]
    return sorted((label.count(x) for x in set(label)), reverse=True)


def spectral_construction(U, values, n: int) -> tuple:
    """The paper's form of a dephased CHM with the spectrum {+-sqrt(n)} and
    ``values``: sqrt(n) (P+ - P-) + V U diag(values) U^dag V^dag, with P+- the
    orthogonal projectors on v+- = (1 +- sqrt(n), 1, ..., 1) and V the basis of
    their orthogonal complement that an SVD of (v+, v-) gives.  Returns (H, V)."""
    rt = math.sqrt(n)
    v = np.ones((2, n))
    v[:, 0] = 1.0 + rt, 1.0 - rt
    projectors = [np.outer(w, w) / (w @ w) for w in v]
    V = np.linalg.svd(v)[2][2:].T.astype(np.complex128)  # [n, n - 2]
    Y = V @ U
    return rt * (projectors[0] - projectors[1]) + (Y * values) @ Y.conj().T, V


def placements_by_dedup(pattern, n: int) -> list:
    """``search._pattern_placements(pattern, n)`` as first enumerated: +sqrt(n)
    and -sqrt(n) dealt into every ordered pair of distinct blocks of the
    (descending) pattern, a repeated pair of block sizes dropped after the
    fact, and the tail placement (one free block of size n - 2) when no pair
    is left.  Each placement is (fixed, free, pairs, hinge) in the layout of
    ``search._Placement``, built entry by entry."""
    rt, m = math.sqrt(n), n - 2
    chosen, seen = [], set()
    for i, j in itertools.permutations(range(len(pattern)), 2):
        if (pattern[i], pattern[j]) not in seen:
            seen.add((pattern[i], pattern[j]))
            rest = [size for k, size in enumerate(pattern) if k not in (i, j)]
            chosen.append(([rt] * (pattern[i] - 1) + [-rt] * (pattern[j] - 1), rest))
    out = []
    for fixed, sizes in chosen or [([], [m])]:
        group = [("fixed", v) for v in fixed]
        group += [("free", b) for b, size in enumerate(sizes) for _ in range(size)]
        free = np.zeros((m, len(sizes)))
        for k, (kind, b) in enumerate(group):
            if kind == "free":
                free[k, b] = 1.0
        pairs = [(k, l) for k in range(m) for l in range(k + 1, m) if group[k] != group[l]]
        # every pair of free values, then each against +sqrt(n) and -sqrt(n),
        # over the columns (free values, +sqrt(n), -sqrt(n))
        nf = len(sizes)
        hinge = list(itertools.combinations(range(nf), 2))
        hinge += [(b, nf + s) for b in range(nf) for s in (0, 1)]
        rows = np.zeros((len(hinge), nf + 2))
        for i, (a, b) in enumerate(hinge):
            rows[i, a], rows[i, b] = 1.0, -1.0
        out.append((np.array(fixed + [0.0] * (m - len(fixed)), dtype=np.complex128),
                    free, pairs, rows))
    return out


def hinge_penalty_by_enumeration(values, n: int, min_gap: float) -> float:
    """The hinge part of the search's r @ r read off a placement's Lam alone:
    the clusters are the distinct values among ``values`` and +-sqrt(n), and
    every pair of clusters but (+sqrt(n), -sqrt(n)), which no parameter
    moves, adds max(min_gap - |a - b|, 0)^2."""
    rt = math.sqrt(n)
    clusters = [complex(rt), complex(-rt)]
    for v in map(complex, values):
        if v not in clusters:
            clusters.append(v)
    total = 0.0
    for i, j in itertools.combinations(range(len(clusters)), 2):
        if (i, j) != (0, 1):
            total += max(min_gap - abs(clusters[i] - clusters[j]), 0.0) ** 2
    return total


def spectral_residual_and_jacobian(Y, phi, placement, task) -> tuple:
    """The search's residual r and exact Jacobian J in the spectral
    coordinates, in their first form.

    Lam is built entry by entry, the interior h = Y Lam Y^dag - 1/(n - 1) as
    a sum of outer products, the gauge pairs from the placement's groups, the
    hinge pairs as every pair of free values and each free value against
    +-sqrt(n), and the barrier from ||h - h^dag||_F^2.  Each column of J is
    the change dh that one parameter makes, S_kl's real part i d (y_k y_l^dag
    - y_l y_k^dag) and its imaginary part -d (y_k y_l^dag + y_l y_k^dag) with
    d = lam_l - lam_k, a free angle i lam_k y_k y_k^dag summed over its
    block; its rows are 2 Re(conj(h) dh), then the hinges' and the barrier's
    derivatives.  ``search._residual`` and ``search._jacobian`` must agree
    with it to rounding."""
    n, m = task.n, Y.shape[1]
    rt = math.sqrt(n)
    mu = [rt * np.exp(1j * angle) for angle in phi]
    owner = [int(np.argmax(row)) if row.any() else None for row in placement.free]
    lam = [placement.fixed[k] if b is None else mu[b] for k, b in enumerate(owner)]
    group = [("fixed", placement.fixed[k]) if b is None else ("free", b)
             for k, b in enumerate(owner)]
    outer = [[np.outer(Y[:, k], Y[:, l].conj()) for l in range(m)] for k in range(m)]
    h = np.full((n - 1, n - 1), -1.0 / (n - 1), dtype=np.complex128)
    for k in range(m):
        h = h + lam[k] * outer[k][k]
    K = h - h.conj().T
    values = mu + [rt, -rt]
    hinge_pairs = list(itertools.combinations(range(len(mu)), 2))
    hinge_pairs += [(b, len(mu) + s) for b in range(len(mu)) for s in (0, 1)]
    sep = [values[a] - values[b] for a, b in hinge_pairs]
    hinge = [max(task.min_cluster_gap - abs(s), 0.0) for s in sep]
    rows = [(np.abs(h) ** 2 - 1.0).ravel(), np.array(hinge, dtype=np.float64)]
    if task.non_hermitian:
        rows.append(np.array([max(HERMITIAN_BARRIER - float(np.sum(np.abs(K) ** 2)), 0.0)]))
    r = np.concatenate(rows)

    pairs = [(k, l) for k in range(m) for l in range(k + 1, m) if group[k] != group[l]]
    changes = [1j * (lam[l] - lam[k]) * (outer[k][l] - outer[l][k]) for k, l in pairs]
    changes += [-(lam[l] - lam[k]) * (outer[k][l] + outer[l][k]) for k, l in pairs]
    changes += [sum(1j * lam[k] * outer[k][k] for k in range(m) if owner[k] == b)
                for b in range(len(mu))]
    columns = []
    for c, dh in enumerate(changes):
        angle = c - 2 * len(pairs)  # the free angle this column moves, if any
        dsep = [(1j * values[a] if a == angle else 0.0) - (1j * values[b] if b == angle else 0.0)
                for a, b in hinge_pairs]
        dhinge = [-(np.conj(s) * ds).real / abs(s) if g > 0.0 and abs(s) > 0.0 else 0.0
                  for s, ds, g in zip(sep, dsep, hinge)]
        column = [2.0 * (np.conj(h) * dh).real.ravel(), np.array(dhinge, dtype=np.float64)]
        if task.non_hermitian:
            dK = dh - dh.conj().T
            column.append([-2.0 * float(np.sum(np.conj(K) * dK).real) if r[-1] > 0.0 else 0.0])
        columns.append(np.concatenate(column))
    J = np.column_stack(columns) if columns else np.zeros((r.size, 0))
    return r, J


def descend_every_jacobian(Y, phi, placement, task, secant: bool = True) -> tuple:
    """One Levenberg-Marquardt restart as first written: ``search._residual``
    and ``search._jacobian`` at every trial point, the restart's last step
    included, the damped matrix built as J^T J + S + lam I and the stop rules
    checked after each step.  S is the zero matrix except in the
    large-residual tail, where ``search._secant_update`` keeps it; with
    ``secant=False`` it stays zero, the Gauss-Newton loop as first written.
    Returns (h, Lam, value, trace rows (step, value))."""
    r, stage = _residual(Y, phi, placement, task)
    J = _jacobian(r, Y, stage, placement, task)
    f = float(r @ r)
    lam = 1e-3
    eye = np.eye(J.shape[1])
    S, tail = np.zeros_like(eye), False
    steps, rows = 0, []
    while steps < task.max_iters and f >= 1e-24 and J.shape[1] > 0:
        JtJ, g = J.T @ J, J.T @ r
        for _ in range(8):
            try:
                delta = np.linalg.solve(JtJ + S + lam * eye, -g)
                Yc, phic = _step(Y, phi, delta, placement)
                rc, stage_c = _residual(Yc, phic, placement, task)
                Jc = _jacobian(rc, Yc, stage_c, placement, task)
                fc = float(rc @ rc)
                if fc < f:
                    break
            except np.linalg.LinAlgError:
                pass
            lam *= 10.0
        else:
            break
        last = steps + 1 >= task.max_iters or fc < 1e-24 or f - fc <= FTOL * fc
        if secant and not last:
            Jd = J @ delta
            if tail and float(delta @ -g) - lam * float(delta @ delta) < SECANT_CURVATURE * float(Jd @ Jd):
                secant = False
            model = r + Jd
            tail = (secant and f - fc < SECANT_SHARE * f and fc > SECANT_FLOOR
                    and float(model @ model) > SECANT_MODEL * f)
            gc = Jc.T @ rc
            S = _secant_update(S, delta, gc - g, gc - J.T @ rc) if tail else np.zeros_like(eye)
        f_prev, Y, phi, f, r, J, stage = f, Yc, phic, fc, rc, Jc, stage_c
        lam = max(lam / 3.0, 1e-12)
        rows.append((steps, f))
        steps += 1
        if f_prev - f <= FTOL * f:
            break
    return stage[0], stage[1], f, rows
