"""Multi-start phase search for dephased CHMs with a prescribed spectrum.

The search space is the 25 free phases of a dephased unimodular 6x6 matrix
(first row and column pinned to ones, which removes the diagonal-equivalence
orbit directions).  The objective combines the unitarity defect with a
spectral penalty: either the squared distance to an explicit target spectrum
under the best pairing of eigenvalues, or a clustering penalty for a
multiplicity pattern whose cluster centers float on the circle of radius
sqrt(6).  The pattern penalty is minimized exactly over every set partition
of the eigenvalues into the pattern's blocks; the partitions' masks, block
sizes and block-pair indices depend only on (pattern, n), so
``_partition_table`` builds them once per process and each objective call is
a few array products.

The objective is the squared norm of a residual vector, and every restart
runs Levenberg-Marquardt (damped Gauss-Newton) on that vector from a random
start.  Its Jacobian is exact: first-order eigenvalue perturbation turns one
eigendecomposition per step into every eigenvalue derivative.  Restarts
provide globalization and every draw is keyed by (seed, restart index), so
reports are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import chm_residuals
from .eigen import ConvergenceError, Spectrum, spectrum_distance
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
    w_chm: float = 1.0
    w_spec: float = 1.0
    min_cluster_gap: float = 0.5
    non_hermitian: bool = False
    stop_on_success: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.w_chm <= 0 or self.w_spec <= 0:
            raise ValueError("weights must be positive")
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
        if isinstance(self.target, Spectrum):
            target = {"spectrum": [[v.real, v.imag] for v in self.target.values]}
        else:
            target = {"pattern": list(self.target)}
        return json.dumps(
            {
                "n": self.n,
                "target": target,
                "restarts": self.restarts,
                "max_iters": self.max_iters,
                "seed": self.seed,
                "tol_success": self.tol_success,
                "w_chm": self.w_chm,
                "w_spec": self.w_spec,
                "min_cluster_gap": self.min_cluster_gap,
                "non_hermitian": self.non_hermitian,
                "stop_on_success": self.stop_on_success,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SearchTask":
        obj = json.loads(text)
        raw = obj["target"]
        if "spectrum" in raw:
            target = Spectrum(np.array([complex(re, im) for re, im in raw["spectrum"]]))
        else:
            target = tuple(raw["pattern"])
        return cls(
            target=target,
            n=obj.get("n", 6),
            restarts=obj["restarts"],
            max_iters=obj["max_iters"],
            seed=obj["seed"],
            tol_success=obj.get("tol_success", 1e-8),
            w_chm=obj.get("w_chm", 1.0),
            w_spec=obj.get("w_spec", 1.0),
            min_cluster_gap=obj.get("min_cluster_gap", 0.5),
            non_hermitian=obj.get("non_hermitian", False),
            stop_on_success=obj.get("stop_on_success", True),
        )


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


def _unitarity_defect(H: np.ndarray, n: int):
    G = H @ H.conj().T
    G.flat[:: n + 1] -= n
    return float(np.sum(np.abs(G) ** 2)), G


def chm_gradient(phases: np.ndarray, n: int = 6) -> np.ndarray:
    """Analytic gradient of ||H H^dag - n I||_F^2 in the free phases."""
    H = phases_to_matrix(phases, n)
    _, G = _unitarity_defect(H, n)
    # d/d theta_jk = -4 Im( h_jk * conj((G H)_jk) ) on the free block
    full = -4.0 * np.imag(H * np.conj(G @ H))
    return full[1:, 1:].ravel()


class _PartitionTable(NamedTuple):
    """Everything about a pattern's set partitions that does not depend on
    the eigenvalues, built once per (pattern, n) by ``_partition_table``."""

    masks: np.ndarray  # bool [P, K, n]: block k of partition p holds index i
    masks_c: np.ndarray  # masks as complex, for ``masks_c @ eigs``
    masks_f: np.ndarray  # masks as float, for ``masks_f @ |eigs|^2``
    counts: np.ndarray  # int [P, K] block sizes
    owner: np.ndarray  # int [P, n]: the block of partition p that holds index i
    iu: np.ndarray  # block pairs (iu[q], ju[q]) with iu < ju, for the gap hinge
    ju: np.ndarray


@functools.lru_cache(maxsize=None)
def _partition_table(pattern: tuple, n: int) -> _PartitionTable:
    """Masks, block counts and block-pair indices for every set partition of
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
    table = _PartitionTable(
        masks, masks.astype(np.complex128), masks.astype(np.float64),
        masks.sum(axis=2), masks.argmax(axis=1), iu, ju,
    )
    for arr in table:
        arr.flags.writeable = False
    return table


def _partition_costs(eigs: np.ndarray, pattern: tuple, n: int, min_gap: float):
    """Clustering cost [P] of every partition into the pattern's blocks, in
    the order of ``_partition_table``; see ``pattern_penalty`` for the terms."""
    t = _partition_table(tuple(pattern), n)
    sums = t.masks_c @ eigs  # [P, K] complex
    means = sums / t.counts
    sq = t.masks_f @ (np.abs(eigs) ** 2)  # [P, K]
    within = np.maximum(sq - (np.abs(sums) ** 2) / t.counts, 0.0)
    center = (np.abs(means) - math.sqrt(n)) ** 2
    costs = (within + center).sum(axis=1)
    if t.iu.size and min_gap > 0.0:
        gaps = np.abs(means[:, t.iu] - means[:, t.ju])  # [P, pairs]
        costs = costs + (np.maximum(min_gap - gaps, 0.0) ** 2).sum(axis=1)
    return costs


def pattern_penalty(
    eigs: np.ndarray, pattern: tuple, n: int = 6, min_gap: float = 0.5
) -> float:
    """Clustering penalty: spread, center-modulus defect, and separation.

    Minimized exactly over all assignments of the n eigenvalues into blocks
    of the given sizes.  Per block: the within-block spread plus the
    deviation of the block-center modulus from sqrt(n); per block pair: a
    hinge that charges centers closer than ``min_gap``, so the pattern means
    an exact multiplicity profile rather than any refinement of one.
    Cluster centers are block means, so they float freely on the circle.
    """
    return float(_partition_costs(eigs, pattern, n, min_gap).min())


def _match_to_reference(eigs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Permutation of ``eigs`` that best matches ``ref`` in least squares (n <= 8)."""
    from .eigen import _all_perms

    perms = _all_perms(len(ref))
    cost = np.abs(ref[None, :] - eigs[perms]) ** 2
    return perms[int(cost.sum(axis=1).argmin())]


def _spectral_penalty(H: np.ndarray, task: SearchTask) -> float:
    eigs = np.linalg.eigvals(H)
    if isinstance(task.target, Spectrum):
        ref = task.target.values
        return np.sum(np.abs(eigs[_match_to_reference(eigs, ref)] - ref) ** 2)
    return pattern_penalty(eigs, task.target, task.n, task.min_cluster_gap)


def _barrier(H: np.ndarray) -> float:
    herm = float(np.sum(np.abs(H - H.conj().T) ** 2))
    gap = HERMITIAN_BARRIER - herm
    return gap * gap if gap > 0.0 else 0.0


def objective(phases, task: SearchTask) -> float:
    """w_chm * ||H H^dag - n I||_F^2 + w_spec * spectral penalty (+ barrier)."""
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if phases.size != task.num_phases:
        raise ValueError(f"expected {task.num_phases} phases, got {phases.size}")
    H = phases_to_matrix(phases, task.n)
    val = task.w_chm * _unitarity_defect(H, task.n)[0]
    val += task.w_spec * _spectral_penalty(H, task)
    if task.non_hermitian:
        val += _barrier(H)
    return float(val)


def gradient_check(phases, h: float = 1e-6, n: int = 6) -> float:
    """Max mismatch between the analytic unitarity-term gradient and central
    finite differences, relative to max(1, |gradient|), over all coordinates."""
    phases = np.asarray(phases, dtype=np.float64).ravel()
    if phases.size != (n - 1) ** 2:
        raise ValueError(f"expected {(n - 1) ** 2} phases, got {phases.size}")
    ga = chm_gradient(phases, n)
    gf = np.empty_like(ga)
    for k in range(phases.size):
        bump = np.zeros_like(phases)
        bump[k] = h
        fp = _unitarity_defect(phases_to_matrix(phases + bump, n), n)[0]
        fm = _unitarity_defect(phases_to_matrix(phases - bump, n), n)[0]
        gf[k] = (fp - fm) / (2.0 * h)
    denom = np.maximum(1.0, np.maximum(np.abs(ga), np.abs(gf)))
    return float(np.max(np.abs(ga - gf) / denom))


# ---------------------------------------------------------------------------
# local descent: Levenberg-Marquardt on the residual vector
# ---------------------------------------------------------------------------

def _residual_and_jacobian(theta: np.ndarray, task: SearchTask):
    """Residual vector r with r @ r == objective(theta, task), and its exact
    Jacobian in the free phases.

    The residual stacks the unitarity block G = H H^dag - n I, the spectral
    block and, for a non-Hermitian task, the barrier row.  The spectral block
    is the eigenvalues minus the target under the best pairing, or for a
    pattern, over the best partition: each eigenvalue's deviation from its
    block mean, each block-mean modulus defect, and a hinge row for each
    block pair closer than ``min_cluster_gap``.  Phase theta_jk moves H by
    the rank-one dH = i h_jk e_j e_k^T, so one eigendecomposition
    H = X diag(w) X^-1 gives every eigenvalue derivative by first-order
    perturbation theory, d w_i = (X^-1 dH X)_ii = i h_jk (X^-1)_ij X_ki.
    """
    n = task.n
    H = phases_to_matrix(theta, n)
    free = H[1:, 1:]
    # unitarity block: dG = dH H^dag + (dH H^dag)^dag, with
    # (dH H^dag)_ab = delta_aj i h_jk conj(h_bk)
    G = H @ H.conj().T
    G.flat[:: n + 1] -= n
    rows = 1j * free[:, :, None] * np.conj(H[:, 1:].T)[None]  # [j, k, b]
    A = np.zeros((n, n, n - 1, n - 1), dtype=np.complex128)  # [a, b, j, k]
    j = np.arange(n - 1)
    A[j + 1, :, j, :] = rows.transpose(0, 2, 1)
    dG = (A + np.conj(A.transpose(1, 0, 2, 3))).reshape(n * n, -1)
    wc = math.sqrt(task.w_chm)
    res = [wc * G.real.ravel(), wc * G.imag.ravel()]
    jac = [wc * dG.real, wc * dG.imag]

    w, X = np.linalg.eig(H)
    Xinv = np.linalg.inv(X)
    dw = (1j * free[None] * Xinv[:, 1:, None] * X.T[:, None, 1:]).reshape(n, -1)
    ws = math.sqrt(task.w_spec)
    if isinstance(task.target, Spectrum):
        order = _match_to_reference(w, task.target.values)
        diff, ddiff = w[order] - task.target.values, dw[order]
        res += [ws * diff.real, ws * diff.imag]
        jac += [ws * ddiff.real, ws * ddiff.imag]
    else:
        t = _partition_table(task.target, n)
        p = int(_partition_costs(w, task.target, n, task.min_cluster_gap).argmin())
        counts = t.counts[p]
        mu = t.masks_c[p] @ w / counts
        dmu = t.masks_c[p] @ dw / counts[:, None]
        dev, ddev = w - mu[t.owner[p]], dw - dmu[t.owner[p]]
        absmu = np.abs(mu)
        dabs = np.real(np.conj(mu)[:, None] * dmu) / absmu[:, None]
        res += [ws * dev.real, ws * dev.imag, ws * (absmu - math.sqrt(n))]
        jac += [ws * ddev.real, ws * ddev.imag, ws * dabs]
        # hinge rows of the block pairs (a, b) closer than min_cluster_gap
        close = np.abs(mu[t.iu] - mu[t.ju]) < task.min_cluster_gap
        a, b = t.iu[close], t.ju[close]
        sep = mu[a] - mu[b]
        gaps = np.abs(sep)
        res.append(ws * (task.min_cluster_gap - gaps))
        jac.append(-ws * np.real(np.conj(sep)[:, None] * (dmu[a] - dmu[b])) / gaps[:, None])
    if task.non_hermitian:
        # ||K||^2 with K = H - H^dag moves by -4 Im(h_jk conj(K_jk)) per phase
        K = H - H.conj().T
        gap = max(HERMITIAN_BARRIER - float(np.sum(np.abs(K) ** 2)), 0.0)
        res.append([gap])
        jac.append(4.0 * (gap > 0.0) * np.imag(free * np.conj(K[1:, 1:])).reshape(1, -1))
    return np.concatenate(res), np.vstack(jac)


def _qualifies(phases: np.ndarray, task: SearchTask, value: float) -> bool:
    """Soundness gate for a 'found' verdict: CHM residuals and profile match."""
    if value > task.tol_success:
        return False
    H = phases_to_matrix(phases, task.n)
    if not chm_residuals(H, tol=1e-8).is_chm:
        return False
    from .eigen import eigenvalues

    try:
        spec = eigenvalues(H)
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
    lowers the objective; each rejection multiplies lam by 10, at most 8
    times per step.  The restart stops when no damped step improves, when
    the objective is below 1e-24, when a step lowers it by no more than
    ``FTOL`` of its value, or after ``task.max_iters`` steps.
    """
    theta = theta0.copy()
    f = objective(theta, task)
    lam = 1e-3
    eye = np.eye(theta.size)
    steps = 0
    while steps < task.max_iters and f >= 1e-24:
        r, J = _residual_and_jacobian(theta, task)
        JtJ, g = J.T @ J, J.T @ r
        for _ in range(8):
            try:
                cand = theta + np.linalg.solve(JtJ + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            fc = objective(cand, task)
            if fc < f:
                break
            lam *= 10.0
        else:
            break
        f_prev, theta, f = f, cand, fc
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
    from .eigen import eigenvalues

    try:
        best_spectrum = eigenvalues(H)
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
