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
random start, with one residual-and-Jacobian evaluation per trial step.
The Jacobian is exact: first-order eigenvalue perturbation turns one
eigendecomposition into every eigenvalue derivative.  Restarts provide
globalization and every draw is keyed by (seed, restart index), so reports
are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import eigen
from .core import chm_residuals
from .eigen import ConvergenceError, Spectrum, _all_perms, spectrum_distance
from .spectral import multiplicity_profile

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
class SearchTask:
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
        else:
            raise TypeError("target must be a Spectrum, a pattern tuple, or a string")

    @property
    def num_phases(self) -> int:
        return (self.n - 1) ** 2

    def to_json(self) -> str:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.target, Spectrum):
            obj["target"] = {"spectrum": [[v.real, v.imag] for v in self.target.values]}
        else:
            obj["target"] = {"pattern": list(self.target)}
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "SearchTask":
        """Inverse of ``to_json``.  Keys that are not fields are ignored, so
        tasks saved with the weight keys of earlier versions (``w_chm``,
        ``w_spec``) still load."""
        obj = json.loads(text)
        raw = obj.pop("target")
        if "spectrum" in raw:
            target = Spectrum(np.array([complex(re, im) for re, im in raw["spectrum"]]))
        else:
            target = tuple(raw["pattern"])
        names = {f.name for f in fields(cls)}
        return cls(target=target, **{k: v for k, v in obj.items() if k in names})


@dataclass(frozen=True)
class RestartTrace:
    restart: int
    seed: int
    final_residual: float
    iterations: int


@dataclass(frozen=True)
class SearchReport:
    """Best candidate over all restarts plus the per-restart convergence trace."""

    task: SearchTask
    best_residual: float
    best_phases: np.ndarray
    best_matrix: np.ndarray
    best_spectrum: Spectrum
    traces: list
    found: bool
    found_restart: int | None = None

    @property
    def verdict(self) -> str:
        return "found" if self.found else "not-found"

    def to_json(self) -> str:
        return json.dumps(
            {
                "task": json.loads(self.task.to_json()),
                "best_residual": self.best_residual,
                "verdict": self.verdict,
                "found_restart": self.found_restart,
                "best_phases": list(self.best_phases),
                "best_matrix": {
                    "n": self.task.n,
                    "re": self.best_matrix.real.tolist(),
                    "im": self.best_matrix.imag.tolist(),
                },
                "best_spectrum": [[v.real, v.imag] for v in self.best_spectrum.values],
                "trace": [
                    [t.restart, t.seed, t.final_residual, t.iterations] for t in self.traces
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SearchReport":
        obj = json.loads(text)
        task = SearchTask.from_json(json.dumps(obj["task"]))
        mat = np.array(obj["best_matrix"]["re"]) + 1j * np.array(obj["best_matrix"]["im"])
        return cls(
            task=task,
            best_residual=obj["best_residual"],
            best_phases=np.array(obj["best_phases"]),
            best_matrix=mat,
            best_spectrum=Spectrum(np.array([complex(r, i) for r, i in obj["best_spectrum"]])),
            traces=[RestartTrace(*row) for row in obj["trace"]],
            found=obj["verdict"] == "found",
            found_restart=obj["found_restart"],
        )


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


def _unitarity_residual(H: np.ndarray, n: int) -> np.ndarray:
    """Unitarity rows r_u: the real and imaginary parts of G = H H^dag - n I."""
    G = H @ H.conj().T
    G.flat[:: n + 1] -= n
    return np.concatenate([G.real.ravel(), G.imag.ravel()])


def _unitarity_jacobian(H: np.ndarray, n: int) -> np.ndarray:
    """Exact Jacobian J_u of the unitarity rows in the free phases.  Phase
    theta_jk moves H by dH = i h_jk e_j e_k^T, so dG = dH H^dag + (dH H^dag)^dag
    with (dH H^dag)_ab = delta_aj i h_jk conj(h_bk)."""
    rows = 1j * H[1:, 1:, None] * np.conj(H[:, 1:].T)[None]  # [j, k, b]
    A = np.zeros((n, n, n - 1, n - 1), dtype=np.complex128)  # [a, b, j, k]
    j = np.arange(n - 1)
    A[j + 1, :, j, :] = rows.transpose(0, 2, 1)
    dG = (A + np.conj(A.transpose(1, 0, 2, 3))).reshape(n * n, -1)
    return np.vstack([dG.real, dG.imag])


def chm_gradient(phases: np.ndarray, n: int = 6) -> np.ndarray:
    """Analytic gradient 2 J_u^T r_u of ||H H^dag - n I||_F^2 in the free phases."""
    H = phases_to_matrix(phases, n)
    return 2.0 * _unitarity_jacobian(H, n).T @ _unitarity_residual(H, n)


class _PartitionTable(NamedTuple):
    """Everything about a pattern's set partitions that does not depend on
    the eigenvalues, built once per (pattern, n) by ``_partition_table``."""

    masks: np.ndarray  # bool [P, K, n]: block k of partition p holds index i
    masks_c: np.ndarray  # masks as complex, for ``masks_c @ eigs``
    counts: np.ndarray  # int [P, K] block sizes
    owner: np.ndarray  # int [P, n]: the block of partition p that holds index i
    pairs: np.ndarray  # complex [pairs, K]: pairs @ mu = mu_a - mu_b over block pairs a < b


@functools.lru_cache(maxsize=None)
def _partition_table(pattern: tuple, n: int) -> _PartitionTable:
    """Masks, block counts and block-pair differences for every set partition of
    range(n) into blocks of the given sizes.  The arrays are shared by every
    caller, so they are read-only."""
    partitions = []

    def rec(remaining, sizes, acc):
        if not sizes:
            partitions.append(tuple(acc))
            return
        size = sizes[0]
        for block in itertools.combinations(remaining, size):
            left = tuple(x for x in remaining if x not in block)
            rec(left, sizes[1:], acc + [block])

    rec(tuple(range(n)), tuple(pattern), [])
    # deduplicate permutations of equal-size blocks
    seen = set()
    masks = []
    for part in partitions:
        canon = tuple(sorted(part))
        if canon in seen:
            continue
        seen.add(canon)
        m = np.zeros((len(pattern), n), dtype=bool)
        for ci, block in enumerate(part):
            m[ci, list(block)] = True
        masks.append(m)
    masks = np.array(masks)
    iu, ju = np.triu_indices(len(pattern), 1)
    eye = np.eye(len(pattern), dtype=np.complex128)
    table = _PartitionTable(
        masks, masks.astype(np.complex128), masks.sum(axis=2), masks.argmax(axis=1),
        eye[iu] - eye[ju],
    )
    for arr in table:
        arr.flags.writeable = False
    return table


def _best_partition(eigs: np.ndarray, pattern: tuple, n: int, min_gap: float):
    """The spectral rows of every partition of ``eigs`` into the pattern's
    blocks: each eigenvalue's deviation from its block mean (real and
    imaginary parts), each block mean's modulus defect |mu| - sqrt(n), and
    for every block pair the hinge max(min_gap - |mu_a - mu_b|, 0).  Returns
    the rows of the partition p whose rows have the least squared norm, and
    (p, its block means).
    """
    t = _partition_table(tuple(pattern), n)
    mu = (t.masks_c @ eigs) / t.counts  # [P, K]
    dev = eigs - mu[np.arange(len(mu))[:, None], t.owner]  # [P, n]
    hinge = np.maximum(min_gap - np.abs(mu @ t.pairs.T), 0.0)  # [P, pairs]
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
    rows, _ = _best_partition(eigs, pattern, n, min_gap)
    return float(rows @ rows)


def objective(phases, task: SearchTask) -> float:
    """The search objective ||r||^2 for the residual r of ``_residual``:
    ||H H^dag - n I||_F^2 + spectral penalty (+ non-Hermitian barrier)."""
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if phases.size != task.num_phases:
        raise ValueError(f"expected {task.num_phases} phases, got {phases.size}")
    r, _ = _residual(phases, task)
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
        rp = _unitarity_residual(phases_to_matrix(phases + bump, n), n)
        rm = _unitarity_residual(phases_to_matrix(phases - bump, n), n)
        gf[k] = (rp @ rp - rm @ rm) / (2.0 * h)
    denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
    return float(np.max(np.abs(ga - gf) / denom))


# ---------------------------------------------------------------------------
# local descent: Levenberg-Marquardt on the residual vector
# ---------------------------------------------------------------------------

def _residual(theta: np.ndarray, task: SearchTask):
    """Residual stage: r stacks the unitarity rows, the spectral block and,
    for a non-Hermitian task, the barrier row; its length depends only on
    the task.  Returns r and what ``_jacobian`` reuses: H, its eigenvectors
    X, and the pairing with the target spectrum or (partition, block means)."""
    n = task.n
    H = phases_to_matrix(theta, n)
    res = [_unitarity_residual(H, n)]
    w, X = np.linalg.eig(H)
    if isinstance(task.target, Spectrum):
        # the least-squares pairing of w with the target, over all n! orders
        ref, perms = task.target.values, _all_perms(n)
        pick = perms[int((np.abs(ref - w[perms]) ** 2).sum(axis=1).argmin())]
        diff = w[pick] - ref
        res += [diff.real, diff.imag]
    else:
        rows, pick = _best_partition(w, task.target, n, task.min_cluster_gap)
        res.append(rows)
    if task.non_hermitian:
        K = H - H.conj().T
        res.append([max(HERMITIAN_BARRIER - float(np.sum(np.abs(K) ** 2)), 0.0)])
    return np.concatenate(res), (H, X, pick)


def _jacobian(r: np.ndarray, stage: tuple, task: SearchTask) -> np.ndarray:
    """Jacobian stage: the exact Jacobian of ``_residual``'s r in the free phases.
    Phase theta_jk moves H by the rank-one dH = i h_jk e_j e_k^T, so by
    first-order perturbation theory of H = X diag(w) X^-1,
    d w_i = (X^-1 dH X)_ii = i h_jk (X^-1)_ij X_ki."""
    n, (H, X, pick) = task.n, stage
    free = H[1:, 1:]
    jac = [_unitarity_jacobian(H, n)]
    Xinv = np.linalg.inv(X)
    dw = (1j * free[None] * Xinv[:, 1:, None] * X.T[:, None, 1:]).reshape(n, -1)
    if isinstance(task.target, Spectrum):
        ddiff = dw[pick]
        jac += [ddiff.real, ddiff.imag]
    else:
        t = _partition_table(task.target, n)
        p, mu = pick
        dmu = t.masks_c[p] @ dw / t.counts[p][:, None]
        ddev = dw - dmu[t.owner[p]]
        dabs = np.real(np.conj(mu)[:, None] * dmu) / np.abs(mu)[:, None]
        sep = t.pairs @ mu
        gaps = np.abs(sep)[:, None]
        dgap = np.real(np.conj(sep)[:, None] * (t.pairs @ dmu))  # |sep| d|sep|
        # pairs at least min_cluster_gap apart: zero row, no division by the gap
        near = gaps < task.min_cluster_gap
        dhinge = -np.divide(dgap, gaps, out=np.zeros_like(dgap), where=near)
        jac += [ddev.real, ddev.imag, dabs, dhinge]
    if task.non_hermitian:
        # ||K||^2 with K = H - H^dag moves by -4 Im(h_jk conj(K_jk)) per phase
        K = H - H.conj().T
        jac.append(4.0 * (r[-1] > 0.0) * np.imag(free * np.conj(K[1:, 1:])).reshape(1, -1))
    return np.vstack(jac)


def _residual_and_jacobian(theta: np.ndarray, task: SearchTask):
    """The residual r of ``_residual`` and its exact Jacobian J = ``_jacobian``."""
    r, stage = _residual(theta, task)
    return r, _jacobian(r, stage, task)


def _qualifies(phases: np.ndarray, task: SearchTask, value: float) -> bool:
    """Soundness gate for a 'found' verdict: CHM residuals and profile match."""
    if value > task.tol_success:
        return False
    H = phases_to_matrix(phases, task.n)
    if not chm_residuals(H, tol=1e-8).is_chm:
        return False
    try:
        spec = eigen.eigenvalues(H)
    except ConvergenceError:
        return False
    if isinstance(task.target, Spectrum):
        return spectrum_distance(spec, task.target) <= 1e-6
    profile = tuple(multiplicity_profile(spec, cluster_tol=1e-6))
    if profile != tuple(task.target):
        return False
    if task.non_hermitian:
        herm = float(np.sum(np.abs(H - H.conj().T) ** 2))
        if herm < HERMITIAN_BARRIER:
            return False
    return True


def _descend(theta0: np.ndarray, task: SearchTask, trace_rows: list | None, restart: int):
    """One restart: Levenberg-Marquardt from ``theta0``; returns (phases, value, steps).

    A step solves (J^T J + lam I) delta = -J^T r and is taken only when it
    lowers the objective r @ r; each rejection multiplies lam by 10, at most 8
    times per step.  A trial costs one ``_residual_and_jacobian``, whose
    (r, J) the next step reuses when the trial is accepted; a trial whose
    solve or eigendecomposition raises ``LinAlgError`` counts as rejected.
    The restart stops when no damped step improves, when the objective is
    below 1e-24, when a step lowers it by no more than ``FTOL`` of its
    value, or after ``task.max_iters`` steps.
    """
    theta = theta0.copy()
    r, J = _residual_and_jacobian(theta, task)
    f = float(r @ r)
    lam = 1e-3
    eye = np.eye(theta.size)
    steps = 0
    while steps < task.max_iters and f >= 1e-24:
        JtJ, g = J.T @ J, J.T @ r
        for _ in range(8):
            try:
                cand = theta + np.linalg.solve(JtJ + lam * eye, -g)
                rc, Jc = _residual_and_jacobian(cand, task)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            fc = float(rc @ rc)
            if fc < f:
                break
            lam *= 10.0
        else:
            break
        f_prev, theta, f, r, J = f, cand, fc, rc, Jc
        lam = max(lam / 3.0, 1e-12)
        if trace_rows is not None:
            trace_rows.append((restart, steps, f))
        steps += 1
        if f_prev - f <= FTOL * f:
            break
    return theta, f, steps


def minimize(task: SearchTask, trace_rows: list | None = None) -> SearchReport:
    """Run the multi-start search described by ``task``.

    Deterministic: restart r starts from phases drawn by a generator seeded
    with (task.seed, r).  When ``task.stop_on_success`` is set the loop ends
    at the first restart whose candidate passes the soundness gate.
    ``trace_rows``, when given, collects one (restart, iteration, residual)
    row per Levenberg-Marquardt step.
    """
    best_f = math.inf
    best_theta = None
    traces = []
    found = False
    found_restart = None
    for r in range(task.restarts):
        theta0 = np.random.default_rng([task.seed, r]).uniform(0.0, 2.0 * math.pi, task.num_phases)
        theta, f, iters = _descend(theta0, task, trace_rows, r)
        traces.append(RestartTrace(restart=r, seed=task.seed, final_residual=f, iterations=iters))
        if f < best_f:
            best_f, best_theta = f, theta
        if _qualifies(theta, task, f):
            found = True
            found_restart = r
            best_f, best_theta = f, theta
            if task.stop_on_success:
                break
    H = phases_to_matrix(best_theta, task.n)
    try:
        best_spectrum = eigen.eigenvalues(H)
    except ConvergenceError:
        # descriptive only: a found matrix has already passed this solve in
        # _qualifies, so only a not-found best candidate can land here
        best_spectrum = Spectrum(np.linalg.eigvals(H))
    return SearchReport(
        task=task,
        best_residual=best_f,
        best_phases=best_theta,
        best_matrix=H,
        best_spectrum=best_spectrum,
        traces=traces,
        found=found,
        found_restart=found_restart,
    )
