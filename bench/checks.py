"""Checks of chmkit's outputs, computed apart from the program with numpy alone.

Every function raises :class:`WrongAnswer` when an output is wrong and
returns ``None`` when it holds.  None of them calls into chmkit, and none
compares against a stored copy of an earlier output: each recomputes the
property from the matrix or the inputs (``np.linalg.eigvals``,
``np.linalg.matrix_rank``, explicit 2x2 minors, spectral projectors).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: tolerance for "this matrix is a CHM" (HH^dag = nI, |h| = 1, ones border)
CHM_TOL = 1e-8
#: eigenvalues closer than this form one cluster of a multiplicity profile
CLUSTER_TOL = 1e-6
#: a gadget construction must miss the CHM conditions by at least this much
MARGIN = 1e-6
#: rank-one test: every 2x2 minor below this times the block scale squared
MINOR_TOL = 1e-8


class WrongAnswer(AssertionError):
    """The program's output contradicts the independent computation."""


class KnownFault(Exception):
    """The output shows a named fault of the program, counted as a failed operation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# matrix properties
# ---------------------------------------------------------------------------

def chm_miss(H: np.ndarray) -> float:
    """How far H is from a CHM: max of the entry-modulus and HH^dag - nI defects."""
    H = np.asarray(H, dtype=np.complex128)
    n = H.shape[0]
    unimod = float(np.max(np.abs(np.abs(H) - 1.0)))
    unitary = float(np.max(np.abs(H @ H.conj().T - n * np.eye(n))))
    return max(unimod, unitary)


def dephased(H: np.ndarray) -> np.ndarray:
    """Rescale rows and columns by phases so the first row and column are ones."""
    H = np.asarray(H, dtype=np.complex128)
    col = H[:, 0] / np.abs(H[:, 0])
    row = H[0, :] / np.abs(H[0, :])
    return H * np.conj(col)[:, None] * (np.conj(row) * col[0])[None, :]


def cluster_profile(values) -> tuple:
    """Descending sizes of the single-linkage clusters of ``values`` at CLUSTER_TOL."""
    values = np.asarray(values, dtype=np.complex128)
    parent = list(range(values.size))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(values.size), 2):
        if abs(values[i] - values[j]) <= CLUSTER_TOL:
            parent[root(i)] = root(j)
    sizes: dict = {}
    for i in range(values.size):
        sizes[root(i)] = sizes.get(root(i), 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def rank_one_blocks(H: np.ndarray, r: int, c: int) -> list:
    """Every r x c block of H whose 2x2 minors all vanish, by an explicit loop."""
    H = np.asarray(H, dtype=np.complex128)
    nr, nc = H.shape
    found = []
    for rows in itertools.combinations(range(nr), r):
        for cols in itertools.combinations(range(nc), c):
            block = H[np.ix_(rows, cols)]
            limit = MINOR_TOL * float(np.max(np.abs(block))) ** 2
            if all(
                abs(block[i, k] * block[j, l] - block[i, l] * block[j, k]) <= limit
                for i, j in itertools.combinations(range(r), 2)
                for k, l in itertools.combinations(range(c), 2)
            ):
                found.append((rows, cols))
    return found


def _constant_eigenvectors(n: int):
    rt = math.sqrt(n)
    plus = np.ones(n, dtype=np.complex128)
    minus = np.ones(n, dtype=np.complex128)
    plus[0], minus[0] = 1.0 + rt, 1.0 - rt
    return plus, minus


def _match_spectrum(values, expected) -> bool:
    """True when ``values`` and ``expected`` pair up within CLUSTER_TOL (greedy)."""
    left = list(np.asarray(values, dtype=np.complex128))
    for z in np.asarray(expected, dtype=np.complex128):
        k = int(np.argmin([abs(v - z) for v in left]))
        if abs(left[k] - z) > CLUSTER_TOL:
            return False
        left.pop(k)
    return True


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def check_found(verdict: str, H: np.ndarray, pattern: tuple) -> None:
    """A "found" verdict: a dephased 6x6 CHM whose spectrum has ``pattern``."""
    _require(verdict == "found", f"verdict {verdict!r} for realizable {list(pattern)}")
    H = np.asarray(H, dtype=np.complex128)
    n = H.shape[0]
    border = max(np.max(np.abs(H[0, :] - 1.0)), np.max(np.abs(H[:, 0] - 1.0)))
    _require(border <= CHM_TOL, f"not dephased: border off by {border:.3e}")
    miss = chm_miss(H)
    _require(miss <= CHM_TOL, f"not a CHM: defect {miss:.3e}")
    profile = cluster_profile(np.linalg.eigvals(H))
    _require(profile == tuple(pattern), f"profile {list(profile)} != {list(pattern)}")
    rt = math.sqrt(n)
    plus, minus = _constant_eigenvectors(n)
    for sign, v in ((1.0, plus), (-1.0, minus)):
        res = float(np.linalg.norm(H @ v - sign * rt * v) / np.linalg.norm(v))
        _require(res <= 10 * CHM_TOL, f"H v = {sign:+.0f} sqrt(n) v off by {res:.3e}")


def check_not_found(verdict: str, best_residual: float, trace_restarts, restarts: int) -> None:
    """A "not-found" verdict for an impossible pattern, with one trace per restart."""
    _require(verdict == "not-found", f"verdict {verdict!r} for an impossible pattern")
    _require(best_residual > 1e-2, f"best residual {best_residual:.3e} <= 1e-2")
    _require(
        list(trace_restarts) == list(range(restarts)),
        f"traces {list(trace_restarts)} for {restarts} restarts",
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def check_verify(H: np.ndarray, exit_code: int, report: dict, known_fault: str | None) -> None:
    """``chmkit verify`` on a genuine CHM verifies it with the true profile;
    on anything else it exits 1.

    A genuine CHM that exits 1 raises :class:`KnownFault` when the input is
    one that the named fault ``known_fault`` covers, and WrongAnswer otherwise.
    """
    H = np.asarray(H, dtype=np.complex128)
    if chm_miss(H) > CHM_TOL:
        _require(exit_code == 1 and report.get("verified") is False,
                 f"non-CHM control gave exit {exit_code}")
        return
    if exit_code == 1 and report.get("verified") is False and known_fault:
        raise KnownFault(known_fault)
    _require(exit_code == 0 and report.get("verified") is True,
             f"genuine CHM gave exit {exit_code}")
    profile = cluster_profile(np.linalg.eigvals(dephased(H)))
    _require(tuple(report["multiplicity_profile"]) == profile,
             f"profile {report['multiplicity_profile']} != {list(profile)}")


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------

def _require_pass(report, what: str) -> None:
    _require(bool(report.verdict), f"{what}: verdict fail")


def check_triple(H, lam: complex, lam6: complex, report) -> None:
    """Triple-eigenvalue construction: designed spectrum, CHM miss, exact witnesses."""
    H = np.asarray(H, dtype=np.complex128)
    _require_pass(report, "triple")
    miss = chm_miss(H)
    _require(miss >= MARGIN, f"triple: misses the CHM conditions by only {miss:.3e}")
    rt = math.sqrt(6.0)
    designed = [rt, -rt, lam, lam, lam, lam6]
    _require(_match_spectrum(np.linalg.eigvals(H), designed),
             "triple: spectrum is not {sqrt6, -sqrt6, lam x3, lam6}")
    expected = rank_one_blocks(H, 2, 4)
    got = [(tuple(r), tuple(c)) for r, c in report.witnesses]
    _require(got == expected, f"triple: {len(got)} witnesses, loop count {len(expected)}")


def tail_matrix(n: int, lam: complex) -> np.ndarray:
    """The matrix with spectrum {sqrt n, -sqrt n, lam x (n-2)} and the constant
    eigenvectors, assembled from its spectral projectors."""
    plus, minus = _constant_eigenvectors(n)
    P1 = np.outer(plus, plus.conj()) / np.vdot(plus, plus)
    P2 = np.outer(minus, minus.conj()) / np.vdot(minus, minus)
    rt = math.sqrt(n)
    return rt * P1 - rt * P2 + lam * (np.eye(n) - P1 - P2)


def check_tail(n: int, lam: complex, report) -> None:
    """Repeated-tail construction misses the CHM conditions, as reported."""
    _require_pass(report, f"tail n={n}")
    H = tail_matrix(n, lam)
    modulus = float(np.max(np.abs(np.abs(H) - 1.0)))
    row23 = float(abs(np.vdot(H[2], H[1])))
    _require(max(modulus, row23) >= MARGIN, f"tail n={n}: miss below the margin")
    for key, value in (("entry_modulus_residual", modulus), ("row23_inner_product", row23)):
        _require(abs(report.residuals[key] - value) <= 1e-9,
                 f"tail n={n}: {key} {report.residuals[key]!r} != {value!r}")


def check_gram(report) -> None:
    """Gram matrix of six equiangular vectors at -1/5 has rank 5 (not <= 3)."""
    G = np.full((6, 6), -0.2)
    np.fill_diagonal(G, 1.0)
    rank = int(np.linalg.matrix_rank(G, tol=1e-8))
    _require(rank == 5, f"gram: numpy rank {rank}")
    _require(report.details["rank"] == rank, f"gram: reported rank {report.details['rank']}")
    _require_pass(report, "gram")


def check_rotation(report) -> None:
    """A shared rotation angle forces cos a = -7/8 and weight 1/3."""
    _require_pass(report, "rotation")
    cos_a, weight = report.details["cos_a"], report.details["weight"]
    _require(abs(cos_a + 7.0 / 8.0) <= 1e-10, f"rotation: cos a = {cos_a!r}")
    _require(abs(weight - 1.0 / 3.0) <= 1e-10, f"rotation: weight = {weight!r}")


def check_real_pair(d, f, report) -> None:
    """A generic real eigenvector pair: the constraint matrix D has rank 4."""
    _require_pass(report, "realpair")
    d = np.asarray(d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    D = np.vstack([np.ones(6), d**2, f**2, d * f])
    rank = int(np.linalg.matrix_rank(D, tol=1e-8 * np.linalg.norm(D, 2)))
    _require(rank == 4, f"realpair: numpy rank {rank}")
    _require(report.details["rank_D"] == rank,
             f"realpair: rank {report.details['rank_D']} != numpy rank {rank}")
    _require(report.details["branch"] == "rank-4-unsatisfiable",
             f"realpair: branch {report.details['branch']} at rank 4")
