"""Multi-start phase search for dephased CHMs with a prescribed spectrum.

The search space is the 25 free phases of a dephased unimodular 6x6 matrix
(first row and column pinned to ones, which removes the diagonal-equivalence
orbit directions).  ``_residual`` defines what the search minimizes: a
residual vector r whose squared norm is the objective.  It stacks the
unitarity defect H H^dag - n I with a spectral block: either the eigenvalues
minus an explicit target spectrum under the best pairing, or, for a
multiplicity pattern whose cluster centers float on the circle of radius
sqrt(6), the rows of ``_best_partition``: each eigenvalue's deviation from
its block mean, each mean's modulus defect and, for every block pair, a
hinge that is zero unless the means are closer than ``min_cluster_gap``.
The partitions' masks, block sizes and block pairs depend only on
(pattern, n), so ``_partition_table`` builds them once per process and each
evaluation is a few array products.

Every restart runs Levenberg-Marquardt (damped Gauss-Newton) on r from a
random start, with one residual evaluation per trial step and a Jacobian
only for a taken step that does not end the restart.
The Jacobian is exact: first-order eigenvalue perturbation turns one
eigendecomposition into every eigenvalue derivative.  Its blocks are
written into one array, the unitarity block by scattering to positions
that ``_unitarity_scatter`` caches per n.  Restarts provide
globalization and every draw is keyed by (seed, restart index), so reports
are reproducible bit for bit.  "Found" means passing ``_gate``, one
``verify_matrix`` call whose n = 6 theorem legs are reported, never applied.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import DimensionError, _Report, matrix_from_object
from .eigen import Spectrum, _all_perms, spectrum_distance
from .spectral import VerifyReport, verify_matrix

#: margin used by the non-Hermitian barrier: candidates must keep
#: ||H - H^dag||_F^2 at or above this value
HERMITIAN_BARRIER = 0.1

#: a restart stops once a step lowers the objective by no more than this
#: share of its value (MINPACK's default ``ftol``); without it restarts at
#: an impossible pattern creep for hundreds of steps toward the same minimum
FTOL = math.sqrt(np.finfo(np.float64).eps)


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

    ``min_cluster_gap`` is the separation below which two cluster centers of
    a multiplicity pattern count as coinciding; without it a pattern like
    [3,1,1,1] could be satisfied for free by splitting one cluster of a
    [3,3] spectrum into identical singletons.
    """

    target: object  # Spectrum or multiplicity pattern tuple
    n: int = 6
    restarts: int = 50
    max_iters: int = 5000
    seed: int = 0
    tol_success: float = 1e-8
    min_cluster_gap: float = 0.5
    non_hermitian: bool = False
    stop_on_success: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("tol_success", "min_cluster_gap"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        target = self.target
        if isinstance(target, str):
            pattern, non_herm = parse_pattern(target)
            object.__setattr__(self, "target", pattern)
            if non_herm:
                object.__setattr__(self, "non_hermitian", True)
            target = pattern
        elif isinstance(target, (list, tuple)) and not isinstance(target, Spectrum):
            object.__setattr__(self, "target", tuple(sorted(map(int, target), reverse=True)))
            target = self.target
        if isinstance(target, tuple):
            if sum(target) != self.n:
                raise ValueError(
                    f"pattern {target} sums to {sum(target)}, expected n = {self.n}"
                )
        elif isinstance(target, Spectrum):
            if target.n != self.n:
                raise ValueError("target spectrum size must equal n")
            if self.n > 8:  # each residual pairs the spectra over all n! permutations
                raise DimensionError("brute-force assignment is limited to n <= 8")
        else:
            raise TypeError("target must be a Spectrum, a pattern tuple, or a string")

    @property
    def num_phases(self) -> int:
        return (self.n - 1) ** 2

    def to_dict(self) -> dict:
        d = super().to_dict()  # the target tagged: {"pattern": ...} or {"spectrum": ...}
        d["target"] = {"spectrum" if isinstance(self.target, Spectrum) else "pattern": d["target"]}
        return d

    @classmethod
    def from_json(cls, text: str) -> "SearchTask":
        """Inverse of ``to_json``.  Keys that are not fields are ignored, so
        tasks saved with the weight keys of earlier versions (``w_chm``,
        ``w_spec``) still load."""
        obj = json.loads(text)
        raw = obj.pop("target")
        target = _spectrum(raw["spectrum"]) if "spectrum" in raw else tuple(raw["pattern"])
        names = {f.name for f in fields(cls)}
        return cls(target=target, **{k: v for k, v in obj.items() if k in names})


def _spectrum(pairs) -> Spectrum:
    """The spectrum of its [[re, im], ...] JSON form."""
    return Spectrum(np.array([complex(re, im) for re, im in pairs]))


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

    @classmethod
    def from_json(cls, text: str) -> "SearchReport":
        """Inverse of ``to_json``.  Raises ``ValueError`` unless ``best_matrix``
        is a valid matrix file object of the task's n, ``best_phases`` holds
        the task's number of finite phases, ``best_spectrum`` has n values and
        every ``trace`` row is 4 numbers.  A missing ``conflict`` reads as None."""
        obj = json.loads(text)
        task = SearchTask.from_json(json.dumps(obj["task"]))
        H = matrix_from_object(obj["best_matrix"])
        if H.shape[0] != task.n:
            raise ValueError(f"best_matrix has {H.shape[0]} rows; the task's n is {task.n}")
        phases = obj["best_phases"]
        if not (_numbers(phases, task.num_phases) and all(map(math.isfinite, phases))):
            raise ValueError(f"best_phases must be {task.num_phases} finite numbers")
        spectrum = obj["best_spectrum"]
        if not (isinstance(spectrum, list) and len(spectrum) == task.n
                and all(_numbers(pair, 2) for pair in spectrum)):
            raise ValueError(f"best_spectrum must be {task.n} [re, im] pairs, one per eigenvalue")
        if not (isinstance(obj["trace"], list) and all(_numbers(row, 4) for row in obj["trace"])):
            raise ValueError("every trace row must be 4 numbers")
        return cls(
            task=task,
            best_residual=obj["best_residual"],
            found=obj["verdict"] == "found",
            found_restart=obj["found_restart"],
            best_phases=np.array(phases, dtype=np.float64),
            best_matrix=H,
            best_spectrum=_spectrum(spectrum),
            traces=[RestartTrace(*row) for row in obj["trace"]],
            conflict=obj.get("conflict"),
        )


def _numbers(value, size: int) -> bool:
    """True when ``value`` is a JSON list of ``size`` numbers (not booleans)."""
    return (isinstance(value, list) and len(value) == size
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value))


# ---------------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------------

def phases_to_matrix(phases: np.ndarray, n: int = 6) -> np.ndarray:
    """Dephased unimodular matrix with free phases on rows/columns 2..n."""
    phases = np.asarray(phases, dtype=np.float64)
    H = np.ones((n, n), dtype=np.complex128)
    H[1:, 1:] = np.exp(1j * phases.reshape(n - 1, n - 1))
    return H


def matrix_to_phases(H: np.ndarray) -> np.ndarray:
    """Free-phase vector of a dephased unimodular matrix (inverse of above)."""
    H = np.asarray(H, dtype=np.complex128)
    return np.angle(H[1:, 1:]).ravel()


def _unitarity_rows(H: np.ndarray, n: int) -> list:
    """Unitarity rows r_u: the real and imaginary parts of G = H H^dag - n I,
    as two strided views for ``np.concatenate`` to copy once."""
    G = H @ H.conj().T
    G.ravel()[:: n + 1] -= n
    parts = G.view(np.float64).reshape(-1, 2)
    return [parts[:, 0], parts[:, 1]]


@functools.lru_cache(maxsize=None)
def _unitarity_scatter(n: int):
    """Where the entries of the unitarity Jacobian J_u come from, built once per n.

    Phase theta_jk moves H by dH = i h_jk e_j e_k^T, so G = H H^dag moves by
    dG = dH H^dag + (dH H^dag)^dag with (dH H^dag)_ab = delta_aj p_jbk, where
    p_jbk = i h_jk conj(h_bk).  So in column theta_jk, p_jbk lands at (j, b),
    its conjugate at (b, j), and 2 Re p_jjk on the diagonal; every other
    entry is zero.  Returns (take, scale, put): with p as a [j, b, k] array,
    ``J_u.flat[put] = p.view(float).flat[take] * scale``.  The arrays are
    shared by every caller, so they are read-only.
    """
    m, take, scale, put = n - 1, [], [], []
    for j, b, k in itertools.product(range(m), range(n), range(m)):
        re, col, a = 2 * ((j * n + b) * m + k), j * m + k, j + 1  # a: j's row of H
        if b == a:
            entries = [(re, 2.0, a * n + a)]
        else:
            entries = [(re, 1.0, a * n + b), (re + 1, 1.0, n * n + a * n + b),
                       (re, 1.0, b * n + a), (re + 1, -1.0, n * n + b * n + a)]
        for at, s, row in entries:
            take.append(at)
            scale.append(s)
            put.append(row * m * m + col)
    arrays = np.array(take), np.array(scale), np.array(put)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _unitarity_jacobian(H: np.ndarray, ih: np.ndarray, out: np.ndarray) -> None:
    """Write the exact Jacobian J_u of the unitarity rows in the free phases
    into the first 2 n^2 rows of ``out``, which must be zero there; ``ih`` is
    i H[1:, 1:]."""
    take, scale, put = _unitarity_scatter(H.shape[0])
    p = ih[:, None, :] * np.conj(H[None, :, 1:])  # [j, b, k]
    out.ravel()[put] = p.view(np.float64).ravel()[take] * scale


def chm_gradient(phases: np.ndarray, n: int = 6) -> np.ndarray:
    """Analytic gradient 2 J_u^T r_u of ||H H^dag - n I||_F^2 in the free phases."""
    H = phases_to_matrix(phases, n)
    J = np.zeros((2 * n * n, (n - 1) ** 2))
    _unitarity_jacobian(H, 1j * H[1:, 1:], J)
    return 2.0 * J.T @ np.concatenate(_unitarity_rows(H, n))


class _PartitionTable(NamedTuple):
    """Everything about a pattern's set partitions that does not depend on
    the eigenvalues, built once per (pattern, n) by ``_partition_table``."""

    masks: np.ndarray  # bool [P, K, n]: block k of partition p holds index i
    masks_c: np.ndarray  # complex [P * K, n]: the masks' rows, for ``masks_c @ eigs``
    counts: np.ndarray  # float [P, K] block sizes
    owner: np.ndarray  # int [P, n]: the block of partition p that holds index i
    gather: np.ndarray  # int [P, n]: p K + owner, where mu.ravel() holds index i's block mean
    first: np.ndarray  # int [P, pairs]: p K + a over block pairs a < b, into mu.ravel()
    second: np.ndarray  # int [P, pairs]: p K + b
    pairs: np.ndarray  # complex [pairs, K]: pairs @ mu = mu_a - mu_b over block pairs a < b


@functools.lru_cache(maxsize=None)
def _partition_table(pattern: tuple, n: int) -> _PartitionTable:
    """Masks, block counts and block-pair differences for every set partition of
    range(n) into blocks of the given sizes.  The arrays are shared by every
    caller, so they are read-only."""
    masks = []

    def rec(remaining, blocks, least):  # least: block size -> least element of its last block
        k = len(blocks)
        if k == len(pattern):
            m = np.zeros((k, n), dtype=bool)
            for ci, block in enumerate(blocks):
                m[ci, list(block)] = True
            masks.append(m)
            return
        size = pattern[k]
        for block in itertools.combinations(remaining, size):
            # of two blocks of one size, the one with the smaller least
            # element comes first, so each partition is listed once
            if block[0] > least.get(size, -1):
                left = tuple(x for x in remaining if x not in block)
                rec(left, blocks + [block], {**least, size: block[0]})

    rec(tuple(range(n)), [], {})
    masks = np.array(masks)
    iu, ju = np.triu_indices(len(pattern), 1)
    eye = np.eye(len(pattern), dtype=np.complex128)
    base = np.arange(len(masks))[:, None] * len(pattern)
    owner = masks.argmax(axis=1)
    table = _PartitionTable(
        masks, masks.reshape(-1, n).astype(np.complex128), masks.sum(axis=2).astype(np.float64),
        owner, base + owner, base + iu, base + ju, eye[iu] - eye[ju],
    )
    for arr in table:
        arr.flags.writeable = False
    return table


def _best_partition(eigs: np.ndarray, t: _PartitionTable, n: int, min_gap: float):
    """The spectral rows of every partition of ``eigs`` in the table ``t``:
    each eigenvalue's deviation from its block mean (real and imaginary
    parts), each block mean's modulus defect |mu| - sqrt(n), and for every
    block pair the hinge max(min_gap - |mu_a - mu_b|, 0).  Returns the rows
    of the partition p whose rows have the least squared norm, and (p, its
    block means).
    """
    mu = (t.masks_c @ eigs).reshape(t.counts.shape) / t.counts  # [P, K]
    flat = mu.ravel()
    dev = eigs - flat[t.gather]  # [P, n]
    hinge = np.maximum(min_gap - np.abs(flat[t.first] - flat[t.second]), 0.0)  # [P, pairs]
    rows = np.concatenate([dev.real, dev.imag, np.abs(mu) - math.sqrt(n), hinge], axis=1)
    p = int(np.einsum("pr,pr->p", rows, rows).argmin())
    return rows[p], (p, mu[p])


def pattern_penalty(eigs: np.ndarray, pattern: tuple, n: int = 6, min_gap: float = 0.5) -> float:
    """Clustering penalty: spread, center-modulus defect, and separation.

    The squared norm of ``_best_partition``'s rows, minimized exactly over all
    assignments of the n eigenvalues into blocks of the given sizes.  The
    hinges charge block centers closer than ``min_gap``, so the pattern means
    an exact multiplicity profile rather than any refinement of one.  Cluster
    centers are block means, so they float freely on the circle.
    """
    rows, _ = _best_partition(eigs, _partition_table(tuple(pattern), n), n, min_gap)
    return float(rows @ rows)


def objective(phases, task: SearchTask) -> float:
    """The search objective ||r||^2 for the residual r of ``_residual``:
    ||H H^dag - n I||_F^2 + spectral penalty (+ non-Hermitian barrier)."""
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if phases.size != task.num_phases:
        raise ValueError(f"expected {task.num_phases} phases, got {phases.size}")
    r, _ = _residual(phases, task, _spectral_table(task))
    return float(r @ r)


def gradient_check(phases, h: float = 1e-6, n: int = 6) -> float:
    """Max mismatch between ``chm_gradient`` and central finite differences of
    the unitarity rows' squared norm r_u @ r_u, relative to max(1, |gradient|),
    over all coordinates."""
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if phases.size != (n - 1) ** 2:
        raise ValueError(f"expected {(n - 1) ** 2} phases, got {phases.size}")
    ga = chm_gradient(phases, n)
    gf = np.empty_like(ga)
    for k in range(phases.size):
        bump = np.zeros_like(phases)
        bump[k] = h
        rp = np.concatenate(_unitarity_rows(phases_to_matrix(phases + bump, n), n))
        rm = np.concatenate(_unitarity_rows(phases_to_matrix(phases - bump, n), n))
        gf[k] = (rp @ rp - rm @ rm) / (2.0 * h)
    denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
    return float(np.max(np.abs(ga - gf) / denom))


# ---------------------------------------------------------------------------
# local descent: Levenberg-Marquardt on the residual vector
# ---------------------------------------------------------------------------

def _spectral_table(task: SearchTask) -> _PartitionTable | None:
    """The partition table of a pattern task; None for a ``Spectrum`` target."""
    if isinstance(task.target, Spectrum):
        return None
    return _partition_table(task.target, task.n)


def _residual(theta: np.ndarray, task: SearchTask, table: _PartitionTable | None):
    """Residual stage: r stacks the unitarity rows, the spectral block and,
    for a non-Hermitian task, the barrier row; its length depends only on
    the task.  ``table`` is ``_spectral_table(task)``.  Returns r and what
    ``_jacobian`` reuses: H, its eigenvectors X, and the pairing with the
    target spectrum or (partition, block means)."""
    n = task.n
    H = phases_to_matrix(theta, n)
    res = _unitarity_rows(H, n)
    w, X = np.linalg.eig(H)
    if table is None:
        # the least-squares pairing of w with the target, over all n! orders
        ref, perms = task.target.values, _all_perms(n)
        pick = perms[int((np.abs(ref - w[perms]) ** 2).sum(axis=1).argmin())]
        diff = w[pick] - ref
        res += [diff.real, diff.imag]
    else:
        rows, pick = _best_partition(w, table, n, task.min_cluster_gap)
        res.append(rows)
    if task.non_hermitian:
        K = H - H.conj().T
        res.append([max(HERMITIAN_BARRIER - float(np.sum(np.abs(K) ** 2)), 0.0)])
    return np.concatenate(res), (H, X, pick)


def _jacobian(r: np.ndarray, stage: tuple, task: SearchTask,
              table: _PartitionTable | None) -> np.ndarray:
    """Jacobian stage: the exact Jacobian of ``_residual``'s r in the free
    phases, every block written into one array in the rows of r.  Phase
    theta_jk moves H by the rank-one dH = i h_jk e_j e_k^T, so by
    first-order perturbation theory of H = X diag(w) X^-1,
    d w_i = (X^-1 dH X)_ii = i h_jk (X^-1)_ij X_ki."""
    n, (H, X, pick) = task.n, stage
    J = np.zeros((r.size, (n - 1) ** 2))
    ih = 1j * H[1:, 1:]
    _unitarity_jacobian(H, ih, J)
    Xinv = np.linalg.inv(X)
    dw = (ih[None] * Xinv[:, 1:, None] * X.T[:, None, 1:]).reshape(n, -1)
    s = 2 * n * n  # the first spectral row
    if table is None:
        ddiff = dw[pick]
        J[s:s + n], J[s + n:s + 2 * n] = ddiff.real, ddiff.imag
    else:
        p, mu = pick
        nb = len(mu)
        h = s + 2 * n + nb  # the first hinge row
        dmu = table.masks_c[p * nb:(p + 1) * nb] @ dw / table.counts[p, :, None]
        ddev = dw - dmu[table.owner[p]]
        J[s:s + n], J[s + n:s + 2 * n] = ddev.real, ddev.imag
        J[s + 2 * n:h] = np.real(np.conj(mu)[:, None] * dmu) / np.abs(mu)[:, None]
        # pairs at least min_cluster_gap apart keep a zero row, with no
        # division by their gap.  A pair's hinge row in r is positive exactly
        # when gaps < min_cluster_gap below, since pairs @ mu (entries 0 and
        # +-1) rounds each mu_a - mu_b as _best_partition's subtraction does
        dhinge = J[h:h + len(table.pairs)]
        if r[h:h + len(table.pairs)].any():
            sep = table.pairs @ mu
            gaps = np.abs(sep)[:, None]
            dgap = np.real(np.conj(sep)[:, None] * (table.pairs @ dmu))  # |sep| d|sep|
            np.divide(dgap, gaps, out=dhinge, where=gaps < task.min_cluster_gap)
            np.negative(dhinge, out=dhinge)
    if task.non_hermitian:
        # ||K||^2 with K = H - H^dag moves by -4 Im(h_jk conj(K_jk)) per phase
        K = H - H.conj().T
        J[-1] = 4.0 * (r[-1] > 0.0) * np.imag(H[1:, 1:] * np.conj(K[1:, 1:])).ravel()
    return J


def _gate(phases: np.ndarray, task: SearchTask, value: float) -> VerifyReport | None:
    """Soundness gate for a 'found' verdict: ``verify_matrix(H, 1e-8)`` if the
    candidate passes, else None.  The value must be at most ``tol_success``,
    every leg but the n = 6 theorem legs must pass (those are only recorded,
    else not-found would assume the theorem it is evidence for), the profile
    or spectrum must match the target and, if set, the barrier must hold."""
    if value > task.tol_success:
        return None
    H = phases_to_matrix(phases, task.n)
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


def _descend(theta0: np.ndarray, task: SearchTask, table: _PartitionTable | None,
             trace_rows: list | None, restart: int):
    """One restart: Levenberg-Marquardt from ``theta0``; returns (phases, value, steps).

    A step solves (J^T J + lam I) delta = -J^T r and is taken only when it
    lowers the objective r @ r; each rejection multiplies lam by 10, at most 8
    times per step.  A trial costs one ``_residual``; a trial that lowers the
    objective runs ``_jacobian`` on that trial's stage, unless the step ends
    the restart, and the next step reuses its (r, J).  A trial whose solve,
    eigendecomposition or inverse raises ``LinAlgError`` counts as rejected.
    The restart stops when no damped step improves, when the objective is
    below 1e-24, when a step lowers it by no more than ``FTOL`` of its value,
    or after ``task.max_iters`` steps.
    """
    theta = theta0.copy()
    r, stage = _residual(theta, task, table)
    J = _jacobian(r, stage, task, table)
    f = float(r @ r)
    lam = 1e-3
    steps = 0
    done = task.max_iters <= 0 or f < 1e-24
    while not done:
        JtJ, rhs = J.T @ J, -(J.T @ r)
        for _ in range(8):
            try:
                A = JtJ.copy()
                A.ravel()[:: A.shape[0] + 1] += lam
                cand = theta + np.linalg.solve(A, rhs)
                rc, stage = _residual(cand, task, table)
                fc = float(rc @ rc)
                if fc < f:
                    done = steps + 1 >= task.max_iters or fc < 1e-24 or f - fc <= FTOL * fc
                    Jc = None if done else _jacobian(rc, stage, task, table)
                    break
            except np.linalg.LinAlgError:
                pass
            lam *= 10.0
        else:
            break
        theta, f, r, J = cand, fc, rc, Jc
        lam = max(lam / 3.0, 1e-12)
        if trace_rows is not None:
            trace_rows.append((restart, steps, f))
        steps += 1
    return theta, f, steps


def minimize(task: SearchTask, trace_rows: list | None = None) -> SearchReport:
    """Run the multi-start search described by ``task``.

    Deterministic: restart r starts from phases drawn by a generator seeded
    with (task.seed, r).  "Found" means the candidate passed ``_gate``, whose
    report gives ``best_spectrum`` and ``conflict``; with ``stop_on_success``
    the loop ends at the first such restart.  ``trace_rows``, when given,
    collects one (restart, iteration, residual) row per Levenberg-Marquardt
    step.
    """
    table = _spectral_table(task)
    best_f = math.inf
    best_theta = best_gate = found_restart = None
    traces = []
    for r in range(task.restarts):
        theta0 = np.random.default_rng([task.seed, r]).uniform(0.0, 2.0 * math.pi, task.num_phases)
        theta, f, iters = _descend(theta0, task, table, trace_rows, r)
        traces.append(RestartTrace(restart=r, seed=task.seed, final_residual=f, iterations=iters))
        gate = _gate(theta, task, f)
        if gate is not None or f < best_f:
            best_f, best_theta, best_gate = f, theta, gate
        if gate is not None:
            found_restart = r
            if task.stop_on_success:
                break
    H = phases_to_matrix(best_theta, task.n)
    return SearchReport(
        task=task,
        best_residual=best_f,
        found=found_restart is not None,
        found_restart=found_restart,
        best_phases=best_theta,
        best_matrix=H,
        # a not-found best candidate's spectrum is descriptive only, so numpy solves it
        best_spectrum=best_gate.spectrum if best_gate else Spectrum(np.linalg.eigvals(H)),
        traces=traces,
        conflict=best_gate.failed if best_gate else None,
    )
