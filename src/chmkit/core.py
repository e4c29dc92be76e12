"""Complex-matrix substrate: CHM residuals, dephasing, equivalence moves, rank tools.

A complex Hadamard matrix (CHM) is an n x n matrix with unimodular entries
satisfying H H^dag = n I.  Matrices are plain ``numpy`` complex arrays; the
helpers here validate shape/finiteness and implement the handful of exact
transformations everything else builds on.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

#: default tolerance for "is this a CHM?" style validation
DEFAULT_TOL = 1e-10
#: default tolerance for "are these the same matrix?" style identity checks
IDENTITY_TOL = 1e-12
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
    """Base of the frozen report dataclasses: ``to_dict`` gives the fields in
    declaration order, nested reports as dicts and tuples as lists."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, _Report):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


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


def chm_residuals(H, tol: float = DEFAULT_TOL) -> ChmReport:
    """Measure how far ``H`` is from being a complex Hadamard matrix."""
    H = as_matrix(H)
    n = H.shape[0]
    unimod = float(np.max(np.abs(np.abs(H) - 1.0)))
    gram = H @ H.conj().T - n * np.eye(n)
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
        worst = max(abs(abs(p) - 1.0) for p in phases)
        if worst > 1e-12:
            raise ValueError(f"phases must be unimodular within 1e-12 (off by {worst:.3e})")

    @classmethod
    def identity(cls, n: int) -> "MonomialUnitary":
        return cls(n=n, perm=tuple(range(n)), phases=(1.0 + 0.0j,) * n)

    @classmethod
    def diagonal(cls, phases) -> "MonomialUnitary":
        phases = tuple(complex(p) for p in phases)
        return cls(n=len(phases), perm=tuple(range(len(phases))), phases=phases)

    @classmethod
    def permutation(cls, perm) -> "MonomialUnitary":
        perm = tuple(int(p) for p in perm)
        return cls(n=len(perm), perm=perm, phases=(1.0 + 0.0j,) * len(perm))

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


def dephase(H):
    """Normalize ``H`` so its first row and first column are all ones.

    Returns ``(D, left, right)`` where ``D = left @ H @ right`` and the two
    factors are diagonal monomial unitaries (identity permutations).  For a
    matrix with unimodular entries the border of ``D`` equals 1 to rounding.

    Raises :class:`DegenerateInputError` if the first row or column contains
    a zero (no phase can be extracted).
    """
    H = as_matrix(H)
    n = H.shape[0]
    col_phases = np.array([_phase(H[j, 0]) for j in range(n)])
    row_phases = np.array([_phase(H[0, k]) for k in range(n)])
    # left factor kills the first-column phases, right factor the first-row
    # phases; the extra phase(h_00) keeps the corner from being rotated twice.
    left = MonomialUnitary.diagonal(np.conj(col_phases))
    right = MonomialUnitary.diagonal(np.conj(row_phases) * col_phases[0])
    D = (np.conj(col_phases)[:, None] * H) * (np.conj(row_phases) * col_phases[0])[None, :]
    return D, left, right


def is_dephased(H, tol: float = DEFAULT_TOL) -> bool:
    """True when the first row and column of ``H`` are all ones within ``tol``."""
    H = as_matrix(H)
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


def rank_one_submatrix_scan(H, r: int, c: int, tol: float = 1e-8) -> list:
    """Enumerate all r x c submatrices of ``H`` with numerical rank one.

    Returns a list of ``(rows, cols)`` index tuples in lexicographic order.
    ``H`` is small (n <= 8), so every block is gathered into one array, one
    batched SVD gives their singular values, and a block is a witness when
    ``numerical_rank``'s count (``_rank``) is exactly one.
    """
    H = as_matrix(H, square=False)
    nr, nc = H.shape
    if r > nr or c > nc:
        raise DimensionError(f"submatrix shape ({r}, {c}) exceeds matrix shape {H.shape}")
    if r < 1 or c < 1:
        raise DimensionError("submatrix dimensions must be positive")
    row_sets = list(itertools.combinations(range(nr), r))
    col_sets = list(itertools.combinations(range(nc), c))
    rows, cols = np.array(row_sets), np.array(col_sets)
    blocks = H[rows[:, None, :, None], cols[None, :, None, :]]  # [R, C, r, c]
    sv = np.linalg.svd(blocks, compute_uv=False)  # [R, C, min(r, c)], descending
    rank_one = _rank(sv, tol) == 1
    return [(row_sets[i], col_sets[j]) for i, j in zip(*np.nonzero(rank_one))]


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
    if not isinstance(obj, dict) or not {"n", "re", "im"} <= set(obj):
        raise ValueError('matrix JSON must contain "n", "re" and "im"')
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError('"n" must be a positive integer')

    def parse(key: str) -> np.ndarray:
        rows = obj[key]
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


def write_matrix(H, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(matrix_to_json(H))
        fh.write("\n")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return matrix_from_json(fh.read())
