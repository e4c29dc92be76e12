"""Complex-matrix substrate: CHM residuals, dephasing, equivalence moves, rank tools.

A complex Hadamard matrix (CHM) is an n x n matrix with unimodular entries
satisfying H H^dag = n I.  Matrices are plain ``numpy`` complex arrays; the
helpers here validate shape/finiteness and implement the handful of exact
transformations everything else builds on.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: default tolerance for "is this a CHM?" style validation
DEFAULT_TOL = 1e-10
#: sqrt(6): the modulus of every eigenvalue of a 6x6 CHM
SQRT6 = math.sqrt(6.0)


class DimensionError(ValueError):
    """Input has the wrong shape for the requested operation."""


class DegenerateInputError(ValueError):
    """Input is structurally unusable (e.g. zero entries where a phase is needed)."""


def as_matrix(values, square: bool = True) -> np.ndarray:
    """Validate ``values`` as a finite complex matrix and return it as an ndarray.

    Raises :class:`DimensionError` for non-2d or (when ``square``) non-square
    input, and ``ValueError`` for NaN/Inf entries.
    """
    m = np.array(values, dtype=np.complex128, copy=True)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError("matrix must be non-empty")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


class _Report:
    """Base of the frozen report and record dataclasses, and chmkit's one JSON
    codec: ``to_dict`` gives the fields in declaration order through
    ``_plain``, and ``to_json`` dumps that dict.  A subclass overrides
    ``to_dict`` only where its wire format renames or reshapes a field."""

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in type(self).__dataclass_fields__}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


_LEAVES = frozenset((float, int, str, bool, type(None)))


def _plain(value):
    """The JSON form of ``value``: reports become dicts, tuples lists, a complex
    number [re, im], and arrays (and array-likes such as ``Spectrum``) nested
    lists.  Leaves return first: every ``verify`` report comes through here."""
    if type(value) in _LEAVES:
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if hasattr(value, "__array__"):
        return _plain(np.asarray(value).tolist())
    return value


@dataclass(frozen=True)
class ChmReport(_Report):
    """Residual certificate for the two CHM defining conditions.

    ``unimodularity_residual`` is max over entries of ``| |h_jk| - 1 |``;
    ``unitarity_residual`` is the Frobenius norm of ``H H^dag - n I``.
    ``is_chm`` holds iff both residuals are within ``tol``.
    """

    n: int
    unimodularity_residual: float
    unitarity_residual: float
    tol: float
    is_chm: bool


def _require_tolerance(tol: float, name: str = "tol") -> None:
    """A tolerance must be finite and nonnegative: an infinite one passes anything."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


def chm_residuals(H, tol: float = DEFAULT_TOL) -> ChmReport:
    """Measure how far ``H`` is from being a complex Hadamard matrix; ``tol``
    must be finite and nonnegative (else ``ValueError``)."""
    _require_tolerance(tol)
    return _chm_residuals(as_matrix(H), tol)


def _chm_residuals(H: np.ndarray, tol: float) -> ChmReport:
    """``chm_residuals`` of a finite complex square array, neither copied nor checked."""
    n = H.shape[0]
    unimod = float(np.max(np.abs(np.abs(H) - 1.0)))
    gram = H @ H.conj().T
    gram.ravel()[:: n + 1] -= n
    unit = float(np.linalg.norm(gram))
    return ChmReport(
        n=n,
        unimodularity_residual=unimod,
        unitarity_residual=unit,
        tol=tol,
        is_chm=bool(unimod <= tol and unit <= tol),
    )


@dataclass(frozen=True)
class MonomialUnitary:
    """A unitary with exactly one nonzero (unimodular) entry per row and column.

    Dense form: column ``j`` has its nonzero at row ``perm[j]`` with value
    ``phases[j]``, i.e. the matrix maps ``e_j -> phases[j] * e_perm[j]``.
    """

    n: int
    perm: tuple
    phases: tuple = field(default=None)

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        phases = self.phases
        if phases is None:
            phases = (1.0 + 0.0j,) * self.n
        phases = tuple(complex(p) for p in phases)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "phases", phases)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{self.n - 1}")
        if len(phases) != self.n:
            raise DimensionError("phases length must equal n")
        worst = float(np.max(np.abs(np.abs(phases) - 1.0)))  # NaN if any phase is NaN
        if not worst <= 1e-12:
            raise ValueError(f"phases must be unimodular within 1e-12 (off by {worst:.3e})")

    @classmethod
    def diagonal(cls, phases) -> "MonomialUnitary":
        phases = tuple(complex(p) for p in phases)
        return cls(n=len(phases), perm=tuple(range(len(phases))), phases=phases)

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=np.complex128)
        for j, (p, ph) in enumerate(zip(self.perm, self.phases)):
            m[p, j] = ph
        return m


def apply_equivalence(H, P: MonomialUnitary, Q: MonomialUnitary) -> np.ndarray:
    """Return the equivalent matrix ``P @ H @ Q`` for monomial unitaries P, Q."""
    H = as_matrix(H)
    n = H.shape[0]
    if P.n != n or Q.n != n:
        raise DimensionError(f"operator dimensions ({P.n}, {Q.n}) do not match matrix ({n})")
    return P.to_matrix() @ H @ Q.to_matrix()


def _phase(z: complex) -> complex:
    a = abs(z)
    if a == 0.0:
        raise DegenerateInputError("cannot take the phase of a zero entry")
    return z / a


def _dephase_phases(H: np.ndarray):
    """``(D, left, right)`` with ``D = diag(left) @ H @ diag(right)`` dephased;
    ``left`` and ``right`` are the phase vectors of ``dephase``'s two factors."""
    n = H.shape[0]
    col_phases = np.array([_phase(H[j, 0]) for j in range(n)])
    row_phases = np.array([_phase(H[0, k]) for k in range(n)])
    # left kills the first-column phases, right the first-row phases; the
    # extra phase(h_00) keeps the corner from being rotated twice.
    left = np.conj(col_phases)
    right = np.conj(row_phases) * col_phases[0]
    return (left[:, None] * H) * right[None, :], left, right


def dephase(H):
    """Normalize ``H`` so its first row and first column are all ones.

    Returns ``(D, left, right)`` where ``D = left @ H @ right`` and the two
    factors are diagonal monomial unitaries (identity permutations).  For a
    matrix with unimodular entries the border of ``D`` equals 1 to rounding.

    Raises :class:`DegenerateInputError` if the first row or column contains
    a zero (no phase can be extracted).
    """
    D, left, right = _dephase_phases(as_matrix(H))
    return D, MonomialUnitary.diagonal(left), MonomialUnitary.diagonal(right)


def is_dephased(H, tol: float = DEFAULT_TOL) -> bool:
    """True when the first row and column of ``H`` are all ones within ``tol``,
    which must be finite and nonnegative (else ``ValueError``)."""
    _require_tolerance(tol)
    return _is_dephased(as_matrix(H), tol)


def _is_dephased(H: np.ndarray, tol: float) -> bool:
    """``is_dephased`` of a finite complex square array, neither copied nor checked."""
    return bool(
        np.max(np.abs(H[0, :] - 1.0)) <= tol and np.max(np.abs(H[:, 0] - 1.0)) <= tol
    )


def singular_values(M) -> np.ndarray:
    """Singular values of a (possibly rectangular) matrix, descending.

    Computed by LAPACK's SVD, so an exactly rank-deficient matrix has
    singular values at the level of rounding (about 1e-16 of the largest),
    far below ``numerical_rank``'s cut.
    """
    return np.linalg.svd(as_matrix(M, square=False), compute_uv=False)


def _rank(sv: np.ndarray, tol: float) -> np.ndarray:
    """How many singular values (descending, last axis) exceed ``tol`` times the largest."""
    return np.sum(sv > tol * sv[..., :1], axis=-1)


def numerical_rank(M, tol: float = 1e-8) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    return int(_rank(singular_values(M), tol))


#: the rank-one scan rules a block out before the SVD when one of its 2x2
#: minors exceeds this many times max(tol, _MINOR_TOL_FLOOR) times the block's
#: squared Frobenius norm (the argument is in ``rank_one_submatrix_scan``)
_MINOR_SLACK = 2.0
#: below this tol the rounding of the minors and of LAPACK's sigma_2 (a few
#: eps), not tol, bounds a rank-one block's minors
_MINOR_TOL_FLOOR = 1e-13
#: the smallest positive normal float: it covers the rounding of minors that underflow
_TINY = float(np.finfo(np.float64).tiny)


class _ScanTables(NamedTuple):
    """Index tables of the rank-one scan for one (nr, nc, r, c)."""

    rows: np.ndarray  # int [R, r]: the r-row subsets, lexicographic
    cols: np.ndarray  # int [C, c]: the c-column subsets, lexicographic
    corners: np.ndarray  # int [4, P * Q]: flat positions of h_ik, h_jl, h_il, h_jk
    minors: np.ndarray  # int [R * C, m]: block b's minors in the flat [P, Q] minor table


@functools.lru_cache(maxsize=32)
def _scan_tables(nr: int, nc: int, r: int, c: int) -> _ScanTables:
    """The scan's subsets, the corners of the 2x2 minors of an nr x nc matrix
    as positions in the flattened (row-major) matrix, and which of those
    minors lie in each r x c block.  Minor a * Q + b takes rows i < j of row
    pair a and columns k < l of column pair b.  The arrays are shared by
    every caller, so they are read-only."""
    row_sets = tuple(itertools.combinations(range(nr), r))
    col_sets = tuple(itertools.combinations(range(nc), c))
    row_pairs = list(itertools.combinations(range(nr), 2))
    col_pairs = list(itertools.combinations(range(nc), 2))
    row_at = {p: a for a, p in enumerate(row_pairs)}
    col_at = {p: a for a, p in enumerate(col_pairs)}
    inner_rows = [[row_at[p] for p in itertools.combinations(R, 2)] for R in row_sets]
    inner_cols = [[col_at[p] for p in itertools.combinations(C, 2)] for C in col_sets]
    minors = np.array([[a * len(col_pairs) + b for a in ra for b in cb]  # [R * C, m]
                       for ra in inner_rows for cb in inner_cols], dtype=np.intp)
    rp = np.array(row_pairs, dtype=np.intp).reshape(-1, 2) * nc
    cp = np.array(col_pairs, dtype=np.intp).reshape(-1, 2)
    i, j, k, l = rp[:, :1], rp[:, 1:], cp[None, :, 0], cp[None, :, 1]
    corners = np.stack([i + k, j + l, i + l, j + k]).reshape(4, -1)
    tables = _ScanTables(
        np.array(row_sets, dtype=np.intp), np.array(col_sets, dtype=np.intp), corners, minors,
    )
    for arr in tables:
        arr.flags.writeable = False
    return tables


def rank_one_submatrix_scan(H, r: int, c: int, tol: float = 1e-8) -> list:
    """Enumerate all r x c submatrices of ``H`` with numerical rank one.

    Returns a list of ``(rows, cols)`` index tuples in lexicographic order.
    A block is a witness when ``numerical_rank``'s count (``_rank``) of its
    singular values is exactly one; the blocks that can still be witnesses
    go through one batched SVD, and when there are none no SVD runs.

    The rest are ruled out by their 2x2 minors, all C(nr,2) C(nc,2) of which
    are computed once.  For a 2x2 submatrix S of a block M, |det S| =
    s_1(S) s_2(S) <= sigma_1(M) sigma_2(M) by interlacing, and sigma_1^2 <= F,
    the squared Frobenius norm of M.  ``_rank == 1`` needs sigma_2 <= tol
    sigma_1, so every minor of a witness has |det| <= tol F, up to the
    rounding of the minors (a few eps F) and of LAPACK's sigma_2 (a few eps
    sigma_1).  A block with a minor |det| > _MINOR_SLACK * max(tol,
    _MINOR_TOL_FLOOR) * F is therefore not a witness: the slack factor 2
    covers that rounding, the floor keeps it covered for a tol near eps, and
    the smallest normal float, added to the bound, covers minors that
    underflow.  Where the products overflow, F does too, and an infinite or
    NaN bound rules nothing out.  Zero blocks, and every block when
    min(r, c) = 1 (it has no minors), go to the SVD.
    """
    H = as_matrix(H, square=False)
    if r > H.shape[0] or c > H.shape[1]:
        raise DimensionError(f"submatrix shape ({r}, {c}) exceeds matrix shape {H.shape}")
    if r < 1 or c < 1:
        raise DimensionError("submatrix dimensions must be positive")
    return _rank_one_scan(H, r, c, tol)


def _rank_one_scan(H: np.ndarray, r: int, c: int, tol: float) -> list:
    """``rank_one_submatrix_scan`` of a finite complex array with 1 <= r <= rows
    and 1 <= c <= columns, neither copied nor checked."""
    t = _scan_tables(*H.shape, r, c)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow rules nothing out
        ik, jl, il, jk = H.take(t.corners)  # positions in the flattened H
        det = np.abs(ik * jl - il * jk)
        sq = H.real**2 + H.imag**2
        frob = sq.take(t.cols, axis=1).sum(axis=-1).take(t.rows, axis=0).sum(axis=1).ravel()
        bound = _MINOR_SLACK * max(tol, _MINOR_TOL_FLOOR) * frob + _TINY
        left = np.flatnonzero(~(det[t.minors] > bound[:, None]).any(axis=1))
    if not left.size:
        return []
    ri, ci = np.divmod(left, len(t.cols))
    blocks = H[t.rows[ri][:, :, None], t.cols[ci][:, None, :]]  # [S, r, c]
    sv = np.linalg.svd(blocks, compute_uv=False)  # [S, min(r, c)], descending
    rank_one = _rank(sv, tol) == 1
    return [(tuple(t.rows[a].tolist()), tuple(t.cols[b].tolist()))
            for a, b in zip(ri[rank_one], ci[rank_one])]


# ---------------------------------------------------------------------------
# Matrix file format: {"n": 6, "re": [[...]], "im": [[...]]}, 17 significant
# digits so that values round-trip bit-exactly.
# ---------------------------------------------------------------------------

def matrix_to_json(H) -> str:
    """Serialize a matrix to the canonical JSON format."""
    H = as_matrix(H, square=False)

    def fmt(part: np.ndarray) -> str:
        rows = (", ".join(f"{x:.17g}" for x in row) for row in part)
        return "[" + ", ".join(f"[{row}]" for row in rows) + "]"

    return '{"n": %d, "re": %s, "im": %s}' % (H.shape[0], fmt(H.real), fmt(H.imag))


def matrix_from_json(text: str) -> np.ndarray:
    """Parse the canonical JSON matrix format, rejecting malformed payloads."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    return matrix_from_object(obj)


#: the entry types a matrix file's numbers decode to (``bool`` is not one)
_ENTRY_TYPES = frozenset((int, float))


def matrix_from_object(obj) -> np.ndarray:
    """The matrix of a decoded ``{"n", "re", "im"}`` object (a matrix file, or
    a search report's ``best_matrix``), rejecting malformed objects."""
    if not isinstance(obj, dict) or not {"n", "re", "im"} <= set(obj):
        raise ValueError('matrix JSON must contain "n", "re" and "im"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError('"n" must be a positive integer')

    def parse(key: str) -> np.ndarray:
        rows = obj[key]
        if (isinstance(rows, list) and len(rows) == n
                and all(isinstance(row, list) and len(row) == n for row in rows)
                and _ENTRY_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows)))):
            return np.array(rows, dtype=np.float64)
        # entry by entry, to name the first fault
        if not isinstance(rows, list) or len(rows) != n:
            raise ValueError(f'"{key}" must be a list of {n} rows')
        for row in rows:
            if not isinstance(row, list) or len(row) != n:
                raise ValueError(f'"{key}" has a ragged or wrongly sized row')
            for x in row:
                if not isinstance(x, (int, float)) or isinstance(x, bool):
                    raise ValueError(f'"{key}" contains a non-numeric entry')
        return np.array(rows, dtype=np.float64)

    re, im = parse("re"), parse("im")
    m = re + 1j * im
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return matrix_from_json(fh.read())
