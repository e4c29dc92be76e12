"""Multi-start search for dephased CHMs with a prescribed spectrum, in the
paper's spectral coordinates (README §Search has the details).

Every dephased n x n CHM is H = sqrt(n) (P+ - P-) + Y Lam Y^dag: P+- project
on the constant eigenvectors v+-, the columns of Y are an orthonormal basis
of W = {x : x_0 = 0, sum x = 0}, and Lam is diagonal with |lam_k| = sqrt(n).
Every such H has a first row and column of ones and H H^dag = n I, so the
residual r needs no eigensolve: the rows |h_ij|^2 - 1 for i, j >= 1, then
``min_cluster_gap`` hinges and, for a non-Hermitian task, a barrier row.
A step moves Y to Y exp(iS), S Hermitian (from a small ``eigh``), without
the gauge entries S_kl of equal lam_k = lam_l, and moves the free angles.

A pattern fixes Lam by a *placement*: +sqrt(n) and -sqrt(n) fill two
distinct blocks and every other block is one free value sqrt(n) e^(i phi).
Placements are listed once per (size of the +sqrt(n) block, size of the
-sqrt(n) block), both descending, and restart r uses placement r mod k;
[n] gets one free block of size n - 2 and is never found.  Hinges keep free
values ``min_cluster_gap`` from each other and from +-sqrt(n), so a pattern
verdict is about CHMs whose clusters are at least that far apart.  A
``Spectrum`` target fixes Lam to its values less the ones nearest +-sqrt(n).

Every restart runs Levenberg-Marquardt on r from a start keyed by (seed,
restart index), so reports are reproducible bit for bit.  "Found" means
passing ``_gate``, one ``verify_matrix`` call on the unimodular matrix of
the candidate's interior angles, whose n = 6 theorem legs are reported,
never applied.  ``chm_gradient`` and ``gradient_check`` keep the unitarity
rows of the phase parametrization for acceptance criterion 7.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import _Report, _is_integer
from .eigen import CLUSTER_TOL, Spectrum, cluster_indices, spectrum_distance
from .spectral import VerifyReport, verify_matrix

#: margin used by the non-Hermitian barrier: candidates must keep
#: ||H - H^dag||_F^2 at or above this value
HERMITIAN_BARRIER = 0.1

#: a restart stops once a step lowers the objective by no more than this
#: share of its value (MINPACK's default ``ftol``); without it restarts at
#: an impossible pattern creep for hundreds of steps toward the same minimum
FTOL = math.sqrt(np.finfo(np.float64).eps)

#: a restart is in its large-residual tail after a taken step that lowered
#: the objective by less than this share of it, left it above
#: ``SECANT_FLOOR`` and left the Gauss-Newton model ||r + J delta||^2 above
#: ``SECANT_MODEL`` times it; there the descent adds the secant term S
SECANT_SHARE = 0.01
#: below this objective a restart may be creeping toward a zero, where the
#: Gauss-Newton step is the right one, so the secant term stays off
SECANT_FLOOR = 1e-4
SECANT_MODEL = 0.8
#: a step taken with S whose model curvature delta^T (J^T J + S) delta is
#: below this share of ||J delta||^2 switches S off for the rest of the restart
SECANT_CURVATURE = 0.1


def parse_pattern(text: str):
    """Parse a multiplicity pattern like ``[4,1,1]`` or ``2,2,1,1``.

    A ``-non-hermitian`` suffix adds the anti-Hermitian barrier.  Returns
    ``(pattern_tuple, non_hermitian_flag)``.
    """
    s = text.strip().lower()
    non_herm = False
    if s.endswith("-non-hermitian"):
        non_herm = True
        s = s[: -len("-non-hermitian")]
    s = s.strip("[]() ")
    try:
        parts = tuple(sorted((int(p) for p in s.split(",")), reverse=True))
    except ValueError as exc:
        raise ValueError(f"cannot parse multiplicity pattern {text!r}") from exc
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"pattern entries must be positive integers: {text!r}")
    return parts, non_herm


@dataclass(frozen=True)
class SearchTask(_Report):
    """Target description plus restart/iteration/seed policy.

    ``n`` is not an argument: it is the target's size, the sum of a pattern
    or the number of a ``Spectrum``'s values, and must be at least 2.
    ``min_cluster_gap`` is the separation below which two cluster centers of
    a multiplicity pattern count as coinciding; without it a pattern like
    [3,1,1,1] could be satisfied for free by splitting one cluster of a
    [3,3] spectrum into identical singletons.
    """

    target: object  # Spectrum or multiplicity pattern tuple
    n: int = field(init=False)
    restarts: int = 50
    max_iters: int = 5000
    seed: int = 0
    tol_success: float = 1e-8
    min_cluster_gap: float = 0.5
    non_hermitian: bool = False
    stop_on_success: bool = True

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if not (_is_integer(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("tol_success", "min_cluster_gap"):
            value = getattr(self, name)
            if not (_is_real(value) and 0.0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
        for name in ("non_hermitian", "stop_on_success"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        target = self.target
        if isinstance(target, str):
            pattern, non_herm = parse_pattern(target)
            object.__setattr__(self, "target", pattern)
            if non_herm:
                object.__setattr__(self, "non_hermitian", True)
            target = pattern
        elif isinstance(target, (list, tuple)):
            if not all(_is_integer(p) and p >= 1 for p in target):
                raise ValueError(f"pattern entries must be positive integers: {target!r}")
            target = tuple(sorted(map(int, target), reverse=True))
            object.__setattr__(self, "target", target)
        if isinstance(target, tuple):
            n = sum(target)
        elif isinstance(target, Spectrum):
            n = target.n
        else:
            raise TypeError("target must be a Spectrum, a pattern tuple, or a string")
        if n < 2:
            raise ValueError(f"n must be >= 2, got a target of size {n}")
        object.__setattr__(self, "n", n)

    def to_dict(self) -> dict:
        d = super().to_dict()  # the target tagged: {"pattern": ...} or {"spectrum": ...}
        d["target"] = {"spectrum" if isinstance(self.target, Spectrum) else "pattern": d["target"]}
        return d


def _is_real(value) -> bool:
    """True for a Python or numpy real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


class RestartTrace(NamedTuple):
    """One restart's outcome; a report's ``trace`` writes it as a 4-element row."""

    restart: int
    seed: int
    final_residual: float
    iterations: int


@dataclass(frozen=True)
class SearchReport(_Report):
    """Best candidate over all restarts plus the per-restart convergence trace.
    The wire format writes ``found`` as ``verdict``, ``traces`` as ``trace``
    and ``best_matrix`` as a matrix file's {"n", "re", "im"} object.
    ``conflict`` names the n = 6 theorem leg of ``verify_matrix`` that a
    found matrix fails (``multiplicity_profile`` or ``hermitian_equivalence``),
    else None."""

    task: SearchTask
    best_residual: float
    found: bool
    found_restart: int | None
    best_phases: np.ndarray
    best_matrix: np.ndarray
    best_spectrum: Spectrum
    traces: list
    conflict: str | None = None

    @property
    def verdict(self) -> str:
        return "found" if self.found else "not-found"

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["found"] = self.verdict
        H = self.best_matrix
        d["best_matrix"] = {"n": self.task.n, "re": H.real.tolist(), "im": H.imag.tolist()}
        wire = {"found": "verdict", "traces": "trace"}
        return {wire.get(k, k): v for k, v in d.items()}

# ---------------------------------------------------------------------------
# the phase parametrization
# ---------------------------------------------------------------------------

def phases_to_matrix(phases: np.ndarray) -> np.ndarray:
    """Dephased unimodular n x n matrix with the (n - 1)^2 free phases on
    rows/columns 2..n; ``ValueError`` when their count is not a square."""
    phases = np.asarray(phases, dtype=np.float64)
    n = math.isqrt(phases.size) + 1
    if (n - 1) ** 2 != phases.size:
        raise ValueError(f"expected (n - 1)^2 phases, got {phases.size}")
    H = np.ones((n, n), dtype=np.complex128)
    H[1:, 1:] = np.exp(1j * phases.reshape(n - 1, n - 1))
    return H


def matrix_to_phases(H: np.ndarray) -> np.ndarray:
    """Free-phase vector of a dephased unimodular matrix (inverse of above)."""
    H = np.asarray(H, dtype=np.complex128)
    return np.angle(H[1:, 1:]).ravel()


def _unitarity_rows(H: np.ndarray) -> list:
    """Unitarity rows r_u: the real and imaginary parts of G = H H^dag - n I,
    as two strided views for ``np.concatenate`` to copy once."""
    n = H.shape[0]
    G = H @ H.conj().T
    G.ravel()[:: n + 1] -= n
    parts = G.view(np.float64).reshape(-1, 2)
    return [parts[:, 0], parts[:, 1]]


def _unitarity_jacobian(H: np.ndarray, ih: np.ndarray, out: np.ndarray) -> None:
    """Write the exact Jacobian J_u of the unitarity rows in the free phases
    into the first 2 n^2 rows of ``out``; ``ih`` is i H[1:, 1:].  Phase
    theta_jk moves H by dH = i h_jk e_j e_k^T, so G = H H^dag moves by
    dG = A + A^dag with A = dH H^dag, whose row j is i h_jk conj(H[:, k])."""
    n = H.shape[0]
    A = np.zeros((n, n, n - 1, n - 1), dtype=np.complex128)  # [a, b, j, k]
    j = np.arange(n - 1)
    A[j + 1, :, j, :] = ih[:, None, :] * np.conj(H[None, :, 1:])
    dG = (A + np.conj(A.transpose(1, 0, 2, 3))).reshape(n * n, -1)
    out[: n * n], out[n * n: 2 * n * n] = dG.real, dG.imag


def chm_gradient(phases: np.ndarray) -> np.ndarray:
    """Analytic gradient 2 J_u^T r_u of ||H H^dag - n I||_F^2 in the free phases."""
    H = phases_to_matrix(phases)
    n = H.shape[0]
    J = np.zeros((2 * n * n, (n - 1) ** 2))
    _unitarity_jacobian(H, 1j * H[1:, 1:], J)
    return 2.0 * J.T @ np.concatenate(_unitarity_rows(H))


def gradient_check(phases, h: float = 1e-6) -> float:
    """Max mismatch between ``chm_gradient`` and central finite differences of
    the unitarity rows' squared norm r_u @ r_u, relative to max(1, |gradient|),
    over all coordinates (0.0 over none); the step ``h`` must be finite and
    positive (else ``ValueError``)."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be finite and positive, got {h!r}")
    phases = np.asarray(phases, dtype=np.float64).ravel()
    ga = chm_gradient(phases)
    gf = np.empty_like(ga)
    for k in range(phases.size):
        bump = np.zeros_like(phases)
        bump[k] = h
        rp = np.concatenate(_unitarity_rows(phases_to_matrix(phases + bump)))
        rm = np.concatenate(_unitarity_rows(phases_to_matrix(phases - bump)))
        gf[k] = (rp @ rp - rm @ rm) / (2.0 * h)
    denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
    return float(np.max(np.abs(ga - gf) / denom, initial=0.0))


# ---------------------------------------------------------------------------
# spectral coordinates: placements, residual, Jacobian and step
# ---------------------------------------------------------------------------

class _Placement(NamedTuple):
    """Where the m = n - 2 values of Lam come from, for one placement.  The
    fields after ``hinge`` are the tables a step reads: Lam and the hinge
    separations are gathers from v = (free values, ``tail``), equal bit for
    bit to Lam's fixed values + free @ mu and hinge @ (mu, +sqrt n, -sqrt n),
    and the Jacobian takes T's columns k m + l and l m + k in one gather."""

    free: np.ndarray  # float [m, F]: 1 where entry k holds free value b
    k: np.ndarray  # int [P]: the non-gauge pairs k < l, entries of different values
    l: np.ndarray  # int [P]
    hinge: np.ndarray  # float [H, F + 2]: e_a - e_b over (free values, +sqrt n, -sqrt n)
    tail: np.ndarray  # complex: v after the free values, +sqrt n, -sqrt n, fixed values
    lam_at: np.ndarray  # int [m]: Lam = v[lam_at]
    hinge_a: np.ndarray  # int [H]: the hinge separations are v[hinge_a] - v[hinge_b]
    hinge_b: np.ndarray  # int [H]
    kl_lk: np.ndarray  # int [2P]: the flat positions k m + l, then l m + k, in an m x m array


def _placement(fixed: list, free_sizes: list, n: int) -> _Placement:
    """The placement whose Lam holds the values ``fixed`` (equal values are
    one group, so their pairs are gauge) and then one free block of each
    size in ``free_sizes``.  The arrays are shared, so they are read-only."""
    m, nf, nx = n - 2, len(free_sizes), len(fixed)
    owner = [b for b, size in enumerate(free_sizes) for _ in range(size)]
    labels = [fixed.index(v) for v in fixed] + [-1 - b for b in owner]
    free = np.zeros((m, nf))
    free[np.arange(nx, m), owner] = 1.0
    k, l = np.array([kl for kl in itertools.combinations(range(m), 2)
                     if labels[kl[0]] != labels[kl[1]]], dtype=np.intp).reshape(-1, 2).T
    hinge_ab = list(itertools.combinations(range(nf), 2))
    hinge_ab += [(b, nf + s) for b in range(nf) for s in (0, 1)]
    a, b = np.array(hinge_ab, dtype=np.intp).reshape(-1, 2).T
    hinge = np.zeros((a.size, nf + 2))
    hinge[np.arange(a.size), a], hinge[np.arange(a.size), b] = 1.0, -1.0
    rt = math.sqrt(n)
    placement = _Placement(
        free, k, l, hinge, np.array([rt, -rt] + fixed, dtype=np.complex128),
        np.array(list(range(nf + 2, nf + 2 + nx)) + owner, dtype=np.intp), a, b,
        np.concatenate([k * m + l, l * m + k]),
    )
    for arr in placement:
        arr.flags.writeable = False
    return placement


@functools.lru_cache(maxsize=None)
def _pattern_placements(pattern: tuple) -> tuple:
    """A pattern's placements (n is its sum), once per (size of the +sqrt(n)
    block, size of the -sqrt(n) block), the first size descending and then
    the second; for [n], the one placement with a free block of size n - 2."""
    n = sum(pattern)
    rt = math.sqrt(n)
    sizes = sorted(set(pattern), reverse=True)
    placements = []
    for a, b in itertools.product(sizes, sizes):
        rest = list(pattern)
        rest.remove(a)
        if b in rest:
            rest.remove(b)
            placements.append(_placement([rt] * (a - 1) + [-rt] * (b - 1), rest, n))
    return tuple(placements) or (_placement([], [n - 2], n),)


def _placements(task: SearchTask) -> tuple:
    """The task's placements; a ``Spectrum`` target has one, with no free
    value: its values once the ones nearest +sqrt(n) and then -sqrt(n) are
    set aside, each cluster (``cluster_indices``) made one value on the
    circle of radius sqrt(n)."""
    n = task.n
    if not isinstance(task.target, Spectrum):
        return _pattern_placements(task.target)
    rt = math.sqrt(n)
    rest = task.target.values
    for c in (rt, -rt):
        rest = np.delete(rest, np.argmin(np.abs(rest - c)))
    values = [0j] * rest.size
    for group in cluster_indices(rest, CLUSTER_TOL):
        value = complex(rt * np.exp(1j * np.angle(rest[group].mean())))
        for i in group:
            values[i] = value
    return (_placement(values, [], n),)


def _start(task: SearchTask, placement: _Placement, restart: int):
    """A restart's start point (Y, phi), drawn from (task.seed, restart): Y is
    the QR frame of a complex Gaussian projected into W, which is V U for a
    Haar-random U in U(n - 2), and phi is uniform on [0, 2 pi)."""
    n = task.n
    rng = np.random.default_rng([task.seed, restart])
    Z = rng.standard_normal((n - 1, n - 2)) + 1j * rng.standard_normal((n - 1, n - 2))
    Q, R = np.linalg.qr(Z - Z.mean(axis=0))
    d = np.diagonal(R)
    return Q * (d / np.abs(d)), rng.uniform(0.0, 2.0 * math.pi, placement.free.shape[1])


def _residual(Y: np.ndarray, phi: np.ndarray, placement: _Placement, task: SearchTask):
    """r at (Y, phi): the rows |h_ij|^2 - 1 of H's interior h, the hinge rows
    and, for a non-Hermitian task, the barrier row.  Returns r and what
    ``_jacobian`` reuses: h, Lam, the free values and the hinge separations."""
    n = task.n
    v = np.concatenate([math.sqrt(n) * np.exp(1j * phi), placement.tail])
    mu, lam = v[: phi.size], v[placement.lam_at]
    h = (Y * lam) @ Y.conj().T
    h -= 1.0 / (n - 1)  # the interior of sqrt(n) (P+ - P-)
    sep = v[placement.hinge_a] - v[placement.hinge_b]
    res = [(h.real ** 2 + h.imag ** 2).ravel() - 1.0,
           np.maximum(task.min_cluster_gap - np.abs(sep), 0.0)]
    if task.non_hermitian:
        res.append([max(HERMITIAN_BARRIER - 4.0 * float(lam.imag @ lam.imag), 0.0)])
    return np.concatenate(res), (h, lam, mu, sep)


def _jacobian(r: np.ndarray, Y: np.ndarray, stage: tuple, placement: _Placement,
              task: SearchTask) -> np.ndarray:
    """The exact Jacobian of ``_residual``'s r in the step's parameters.

    With T_kl[i, j] = conj(h_ij) y_ik conj(y_jl), moving S_kl = a + ib
    (S Hermitian) moves h by i d (a (y_k y_l^dag - y_l y_k^dag) + i b (y_k
    y_l^dag + y_l y_k^dag)) with d = lam_l - lam_k, and the angle of free
    value b moves h by the sum over its entries of i lam_k y_k y_k^dag; each
    row |h_ij|^2 - 1 moves by 2 Re(conj(h_ij) dh_ij)."""
    h, lam, mu, sep = stage
    t, p, nh = h.size, placement.k.size, sep.size
    J = np.zeros((r.size, 2 * p + mu.size))
    T = (h.conj()[:, :, None, None] * Y[:, None, :, None]
         * Y.conj()[None, :, None, :]).reshape(t, -1)
    AB = T[:, placement.kl_lk]
    A, B = AB[:, :p], AB[:, p:]
    d = lam[placement.l] - lam[placement.k]
    # the pair blocks -2 Im(d (A - B)) and -2 Re(d (A + B)), written into J
    X = np.subtract(A, B)
    np.multiply(-2.0, np.multiply(d, X, out=X).imag, out=J[:t, :p])
    np.add(A, B, out=X)
    np.multiply(-2.0, np.multiply(d, X, out=X).real, out=J[:t, p:2 * p])
    J[:t, 2 * p:] = -2.0 * (T[:, :: lam.size + 1] * lam).imag @ placement.free
    hinge = r[t:t + nh]
    if hinge.any():
        # a hinge is positive exactly where |sep| < min_cluster_gap, and its
        # row is -d|sep| = -Re(conj(sep) dsep) / |sep|, with dsep = i mu_b dphi_b
        gaps = np.abs(sep)[:, None]
        dgap = (np.conj(sep)[:, None] * placement.hinge[:, :mu.size] * (1j * mu)).real
        np.divide(-dgap, gaps, out=J[t:t + nh, 2 * p:],
                  where=(hinge[:, None] > 0.0) & (gaps > 0.0))
    if task.non_hermitian and r[-1] > 0.0:
        J[-1, 2 * p:] = -8.0 * (lam.imag * lam.real) @ placement.free
    return J


def _step(Y: np.ndarray, phi: np.ndarray, delta: np.ndarray, placement: _Placement):
    """The point delta away from (Y, phi): Y exp(iS), where the Hermitian S
    holds delta's pair parameters and exp(iS) comes from ``eigh``, and phi
    plus delta's angles."""
    p, m = placement.k.size, Y.shape[1]
    a, ib = delta[:p], 1j * delta[p:2 * p]
    S = np.zeros(m * m, dtype=np.complex128)
    S[placement.kl_lk] = np.concatenate([a + ib, a - ib])
    w, Q = np.linalg.eigh(S.reshape(m, m))
    return Y @ ((Q * np.exp(1j * w)) @ Q.conj().T), phi + delta[2 * p:]


# ---------------------------------------------------------------------------
# local descent: Levenberg-Marquardt on the residual vector
# ---------------------------------------------------------------------------

def _gate(phases: np.ndarray, task: SearchTask, value: float) -> VerifyReport | None:
    """Soundness gate for a 'found' verdict: ``verify_matrix(H, 1e-8)`` if the
    candidate passes, else None.  The value must be at most ``tol_success``,
    every leg but the n = 6 theorem legs must pass (those are only recorded,
    else not-found would assume the theorem it is evidence for), the profile
    or spectrum must match the target and, if set, the barrier must hold."""
    if value > task.tol_success:
        return None
    H = phases_to_matrix(phases)
    report = verify_matrix(H, 1e-8)
    if report.failed not in (None, "multiplicity_profile", "hermitian_equivalence"):
        return None
    if isinstance(task.target, Spectrum):
        match = spectrum_distance(report.spectrum, task.target) <= 1e-6
    else:
        match = tuple(report.multiplicity_profile) == task.target
    if task.non_hermitian and float(np.sum(np.abs(H - H.conj().T) ** 2)) < HERMITIAN_BARRIER:
        return None
    return report if match else None


def _secant_update(S: np.ndarray, s: np.ndarray, y: np.ndarray, y_sharp: np.ndarray) -> np.ndarray:
    """The Dennis-Gay-Welsch update of the secant term S ~ sum r_i Hess(r_i)
    after a step s, with y the change of the gradient J^T r and y_sharp =
    (J_+ - J)^T r_+.  S is first sized by min(1, |s.y#| / |s.S s|), as in
    NL2SOL; the result is symmetric and maps s to y_sharp.  S is returned as
    it is when y.s <= 0."""
    ys = float(y @ s)
    if ys <= 0.0:
        return S
    Ss = S @ s
    sSs = float(s @ Ss)
    if sSs != 0.0:
        tau = min(1.0, abs(float(s @ y_sharp)) / abs(sSs))
        S, Ss = tau * S, tau * Ss
    w = y_sharp - Ss
    wy = np.outer(w, y)
    return S + (wy + wy.T) / ys - (float(w @ s) / ys ** 2) * np.outer(y, y)


def _descend(Y: np.ndarray, phi: np.ndarray, task: SearchTask, placement: _Placement,
             trace_rows: list | None, restart: int):
    """One restart: Levenberg-Marquardt from (Y, phi); returns (h, Lam, value,
    steps) at the last point, h being H's interior.

    A step solves (J^T J + S + lam I) delta = -J^T r and is taken only when it
    lowers the objective r @ r; each rejection multiplies lam by 10, at most 8
    times per step.  A trial costs one ``_step`` and one ``_residual``; a
    trial that lowers the objective runs ``_jacobian`` on that trial's stage,
    unless the step ends the restart, and the next step reuses its (r, J).  A
    trial whose solve or ``eigh`` raises ``LinAlgError`` counts as rejected.
    The restart stops when no damped step improves (at once, for a placement
    with no parameter), when the objective is below 1e-24, when a step lowers
    it by no more than ``FTOL`` of its value, or after ``task.max_iters`` steps.

    S is None (plain Gauss-Newton) until a taken step that does not end the
    restart puts it in its large-residual tail (``SECANT_SHARE``,
    ``SECANT_FLOOR``, ``SECANT_MODEL``); from then on each such step updates S
    by ``_secant_update``, starting from 0, with the tangent coordinates of
    both points taken as the same, and a step out of the tail sets S back to
    None.  A step taken with S whose curvature fails ``SECANT_CURVATURE``
    turns S off for the rest of the restart.
    """
    r, stage = _residual(Y, phi, placement, task)
    J = _jacobian(r, Y, stage, placement, task)
    g = J.T @ r
    f = float(r @ r)
    lam = 1e-3
    steps = 0
    S, secant = None, True
    done = task.max_iters <= 0 or f < 1e-24 or J.shape[1] == 0
    while not done:
        JtJ, rhs = J.T @ J, -g
        for _ in range(8):
            try:
                A = JtJ.copy() if S is None else JtJ + S
                A.ravel()[:: A.shape[0] + 1] += lam
                delta = np.linalg.solve(A, rhs)
                Yc, phic = _step(Y, phi, delta, placement)
                rc, stage_c = _residual(Yc, phic, placement, task)
                fc = float(rc @ rc)
                if fc < f:
                    done = steps + 1 >= task.max_iters or fc < 1e-24 or f - fc <= FTOL * fc
                    Jc = None if done else _jacobian(rc, Yc, stage_c, placement, task)
                    break
            except np.linalg.LinAlgError:
                pass
            lam *= 10.0
        else:
            break
        if not done:
            gc = Jc.T @ rc
            if S is not None:
                # delta^T (J^T J + S) delta, read off the solve, against ||J delta||^2
                Jd = J @ delta
                secant = (float(delta @ rhs) - lam * float(delta @ delta)
                          >= SECANT_CURVATURE * float(Jd @ Jd))
            tail = secant and f - fc < SECANT_SHARE * f and fc > SECANT_FLOOR
            if tail:
                model = r + J @ delta
                tail = float(model @ model) > SECANT_MODEL * f
            S = _secant_update(np.zeros_like(JtJ) if S is None else S,
                               delta, gc - g, gc - J.T @ rc) if tail else None
            g = gc
        Y, phi, f, r, J, stage = Yc, phic, fc, rc, Jc, stage_c
        lam = max(lam / 3.0, 1e-12)
        if trace_rows is not None:
            trace_rows.append((restart, steps, f))
        steps += 1
    return stage[0], stage[1], f, steps


def minimize(task: SearchTask, trace_rows: list | None = None) -> SearchReport:
    """Run the multi-start search described by ``task``.

    Deterministic: restart r uses placement r mod k and starts from a point
    drawn by a generator seeded with (task.seed, r).  "Found" means the
    unimodular matrix of the candidate's interior angles passed ``_gate``,
    whose report gives ``best_spectrum`` and ``conflict``; with
    ``stop_on_success`` the loop ends at the first such restart.  A found
    restart gives way only to a later found one, so a found report's
    ``found_restart``, ``best_*`` fields and ``conflict`` all come from the
    one restart that passed the gate.  A not-found report's ``best_matrix``
    is the best candidate itself, and its ``best_spectrum`` is the
    candidate's spectrum by construction.
    ``trace_rows``, when given, collects one (restart, iteration, residual)
    row per Levenberg-Marquardt step.
    """
    n, placements = task.n, _placements(task)
    best = None  # (gate report, f, phases, h, Lam, restart) of the best restart
    traces = []
    for r in range(task.restarts):
        placement = placements[r % len(placements)]
        h, lam, f, iters = _descend(*_start(task, placement, r), task, placement, trace_rows, r)
        traces.append(RestartTrace(restart=r, seed=task.seed, final_residual=f, iterations=iters))
        phases = np.angle(h).ravel()
        gate = _gate(phases, task, f)
        if best is None or gate is not None or (best[0] is None and f < best[1]):
            best = (gate, f, phases, h, lam, r)
        if gate is not None and task.stop_on_success:
            break
    gate, f, phases, h, lam, r = best
    found_restart = None if gate is None else r
    if gate is not None:
        H, spectrum = phases_to_matrix(phases), gate.spectrum
    else:
        H = np.ones((n, n), dtype=np.complex128)
        H[1:, 1:] = h
        spectrum = Spectrum(np.concatenate([(math.sqrt(n), -math.sqrt(n)), lam]))
    return SearchReport(
        task=task,
        best_residual=f,
        found=found_restart is not None,
        found_restart=found_restart,
        best_phases=phases,
        best_matrix=H,
        best_spectrum=spectrum,
        traces=traces,
        conflict=None if gate is None else gate.failed,
    )
