"""Executable impossibility constructions with pass/fail certificates.

Each gadget measures how the CHM conditions break on the matrix that a
forbidden eigenvalue configuration would force (via its spectral
decomposition).  Most build that matrix; the repeated-tail gadget reads its
residuals off the matrix's two interior entries instead, so its cost does
not grow with n (``repeated_tail_matrix`` still builds the matrix, for tests
and reconstruction).  A gadget "passes" when the claimed violation is
observed with margin at least ``MARGIN`` -- i.e. the construction
demonstrably fails to be a CHM, certifying the corresponding nonexistence
statement for the supplied inputs.  The rotation gadget builds no matrix:
it proves its constants with exact ``fractions.Fraction`` identities that
hold for every cos a, and passes when each identity holds exactly.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL, SQRT6, _chm_residuals, _rank_one_scan, _Report, as_matrix, chm_residuals,
    numerical_rank, rank_one_submatrix_scan,
)
from .eigen import eigenvalues

#: minimum observed violation for a gadget verdict to count as a pass
MARGIN = 1e-6


@dataclass(frozen=True)
class GadgetReport(_Report):
    """Structured certificate: named residuals, witnesses, verdict, margin.
    The wire format writes the verdict as "pass" or "fail"."""

    name: str
    residuals: dict
    verdict: bool
    margin: float
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "verdict": "pass" if self.verdict else "fail"}


@dataclass(frozen=True)
class ProjectorCombo:
    """Eigenvalues (with multiplicity) plus an orthonormal eigenvector frame."""

    values: np.ndarray
    vectors: np.ndarray  # columns are the eigenvectors

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128).ravel()
        vecs = as_matrix(self.vectors)
        if vecs.shape[1] != vals.size:
            raise ValueError("need one eigenvector column per eigenvalue")
        dev = np.max(np.abs(vecs.conj().T @ vecs - np.eye(vals.size)))
        if dev > 1e-10:
            raise ValueError(f"eigenvector frame not orthonormal within 1e-10 (dev {dev:.3e})")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    @classmethod
    def from_pairs(cls, pairs) -> "ProjectorCombo":
        return cls(
            values=np.array([p.value for p in pairs]),
            vectors=np.column_stack([p.vector for p in pairs]),
        )


def reconstruct_from_projectors(combo: ProjectorCombo) -> np.ndarray:
    """Assemble H = sum_k lambda_k |u_k><u_k| from an eigenvalue frame.

    Eigenvalue moduli must sit on the circle of radius sqrt(n), n the frame's
    size (the CHM eigenvalue circle); orthonormality is enforced by the
    combo itself.
    """
    V = combo.vectors
    n = V.shape[0]
    mod_dev = float(np.max(np.abs(np.abs(combo.values) - math.sqrt(n))))
    if not mod_dev <= 1e-6:
        raise ValueError(f"eigenvalue moduli must equal sqrt({n}) (deviation {mod_dev:.3e})")
    return (V * combo.values) @ V.conj().T


# ---------------------------------------------------------------------------
# All non-constant eigenvalues equal (any n >= 4)
# ---------------------------------------------------------------------------

def _tail_entries(n: int, lam: complex) -> tuple[complex, complex]:
    """Interior diagonal d and off-diagonal o of the repeated-tail matrix."""
    return (-1.0 + (n - 2) * lam) / (n - 1), (-1.0 - lam) / (n - 1)


def repeated_tail_matrix(n: int, lam: complex) -> np.ndarray:
    """The matrix forced by the spectrum {+sqrt n, -sqrt n, lam x (n-2)}.

    Border of ones; interior diagonal (-1 + (n-2) lam)/(n-1) and interior
    off-diagonal (-1 - lam)/(n-1).
    """
    d, o = _tail_entries(n, complex(lam))
    H = np.full((n, n), o, dtype=np.complex128)
    np.fill_diagonal(H, d)
    H[0, :] = 1.0
    H[:, 0] = 1.0
    return H


def gadget_repeated_tail(n: int, lam: complex) -> GadgetReport:
    """Certify that an (n-2)-fold repeated tail eigenvalue breaks the CHM laws.

    Residuals: the worst entry-modulus deviation and the inner product of
    rows 2 and 3.  The forced matrix is normal with every eigenvalue of
    modulus sqrt(n), so H H^dag = n I and the inner product is zero up to
    rounding for every lam: only the entry moduli can reach ``MARGIN``, which
    the verdict asks of the larger residual.  Both are read off the two
    interior entries d, o of ``repeated_tail_matrix(n, lam)`` without
    building it, so the cost does not grow with n.
    """
    n = operator.index(n)
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    lam = complex(lam)
    rt = math.sqrt(n)
    if not abs(abs(lam) - rt) <= 1e-9:
        raise ValueError(f"|lam| must equal sqrt({n}) within 1e-9, got {abs(lam)!r}")
    d, o = _tail_entries(n, lam)
    modulus_residual = max(abs(abs(d) - 1.0), abs(abs(o) - 1.0))
    # <row2, row3> in math indexing: rows [1, d, o, o, ...] and [1, o, d, o, ...]
    row_residual = abs(1.0 + o.conjugate() * d + d.conjugate() * o + (n - 3) * abs(o) ** 2)
    margin = max(modulus_residual, row_residual)
    return GadgetReport(
        name="repeated-tail",
        residuals={
            "entry_modulus_residual": modulus_residual,
            "row23_inner_product": row_residual,
        },
        verdict=margin >= MARGIN,
        margin=margin,
        details={"n": n, "lam": [lam.real, lam.imag]},
    )


# ---------------------------------------------------------------------------
# Triple eigenvalue plus a distinct sixth (n = 6)
# ---------------------------------------------------------------------------

def triple_eigenvalue_matrix(lam: complex, lam6: complex, a, t) -> np.ndarray:
    """Entrywise matrix forced by the spectrum {sqrt6, -sqrt6, lam x3, lam6}.

    The sixth eigenvector is [0, a0, a1 e^{i t1}, ..., a4 e^{i t4}] with
    t0 = 0; the diagonal entries are f(a_k) = (-1 + 4 lam)/5 + a_k^2
    (lam6 - lam) and the off-diagonal entries are
    h(m, n) = (-1 - lam)/5 + a_m a_n e^{i(t_m - t_n)} (lam6 - lam).
    """
    a = np.asarray(a, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    phases = np.exp(1j * np.concatenate([[0.0], t]))
    u = a * phases  # the lower 5 components of the sixth eigenvector
    H = np.ones((6, 6), dtype=np.complex128)
    diff = complex(lam6) - complex(lam)
    block = (-1.0 - lam) / 5.0 + np.outer(u, u.conj()) * diff
    idx = np.arange(5)
    block[idx, idx] = (-1.0 + 4.0 * lam) / 5.0 + (a**2) * diff
    H[1:, 1:] = block
    return H


def _validate_triple_inputs(lam, lam6, a, t):
    lam, lam6 = complex(lam), complex(lam6)
    if not abs(abs(lam) - SQRT6) <= 1e-9:
        raise ValueError(f"|lam| must equal sqrt(6) within 1e-9, got {abs(lam)!r}")
    if not abs(abs(lam6) - SQRT6) <= 1e-9:
        raise ValueError(f"|lam6| must equal sqrt(6) within 1e-9, got {abs(lam6)!r}")
    if abs(lam - lam6) <= 1e-9:
        raise ValueError("lam and lam6 must be distinct")
    a = np.asarray(a, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if a.shape != (5,) or t.shape != (4,):
        raise ValueError("need 5 nonnegative amplitudes and 4 angles")
    # nine scalars cost less as Python floats than in numpy calls; x >= 0 is
    # False for NaN, so a NaN amplitude is rejected here
    amps, angles = a.tolist(), t.tolist()
    if not all(x >= 0 for x in amps):
        raise ValueError(f"amplitudes must be nonnegative, got {a}")
    norm_dev = abs(sum(x * x for x in amps) - 1.0)
    if not norm_dev <= 1e-8:
        raise ValueError(f"amplitudes must have unit norm (deviation {norm_dev:.3e})")
    try:
        ortho = abs(amps[0] + sum(x * cmath.exp(1j * y) for x, y in zip(amps[1:], angles)))
    except ValueError:  # cmath.exp rejects an infinite angle: report a NaN residual
        ortho = math.nan
    if not ortho <= 1e-8:
        raise ValueError(
            f"sixth eigenvector must be orthogonal to the constant ones "
            f"(sum residual {ortho:.3e})"
        )
    return lam, lam6, a, t


def gadget_triple_eigenvalue(lam: complex, lam6: complex, a, t):
    """Build the triple-eigenvalue construction and certify it is not a CHM.

    Returns ``(H, report)``.  The report carries the CHM residuals and every
    rank-one 2x4 submatrix witness found in H.
    """
    lam, lam6, a, t = _validate_triple_inputs(lam, lam6, a, t)
    H = triple_eigenvalue_matrix(lam, lam6, a, t)
    # H is built here from validated inputs, so the checks and copy of
    # as_matrix would only repeat themselves
    rep = _chm_residuals(H, DEFAULT_TOL)
    witnesses = _rank_one_scan(H, 2, 4, 1e-8)
    margin = max(rep.unimodularity_residual, rep.unitarity_residual)
    report = GadgetReport(
        name="triple-eigenvalue",
        residuals={
            "entry_modulus_residual": rep.unimodularity_residual,
            "unitarity_residual": rep.unitarity_residual,
        },
        verdict=margin >= MARGIN,
        margin=margin,
        witnesses=witnesses,
        details={
            "lam": [lam.real, lam.imag],
            "lam6": [lam6.real, lam6.imag],
            "rank_one_2x4_count": len(witnesses),
        },
    )
    return H, report


def random_feasible_weights(rng: np.random.Generator):
    """Draw (a, t) for the triple gadget: unit norm, orthogonality satisfied.

    Samples a complex 5-vector, projects onto the sum-zero hyperplane,
    normalizes, and rotates the global phase so the first component is a
    nonnegative real.
    """
    while True:
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        z -= z.mean()
        nz = np.linalg.norm(z)
        if nz < 1e-8 or abs(z[0]) < 1e-8:
            continue
        z /= nz
        z *= z[0].conjugate() / abs(z[0])
        a = np.abs(z)
        t = np.angle(z[1:])
        return a, t


# ---------------------------------------------------------------------------
# Gram-rank certificate for six equiangular unit vectors
# ---------------------------------------------------------------------------

def gadget_gram_rank(tol: float = 1e-8) -> GadgetReport:
    """Rank certificate: the Gram matrix with off-diagonal -1/5 has rank 5.

    Six real unit vectors with pairwise inner product -1/5 would have to
    live in three dimensions (Gram rank <= 3); the actual rank 5 is the
    contradiction.  Eigenvalues are also checked against {0, 6/5 x5}.
    """
    G = np.full((6, 6), -0.2, dtype=np.complex128)
    np.fill_diagonal(G, 1.0)
    rank = numerical_rank(G, tol)
    spec = eigenvalues(G)
    expected = np.array([0.0] + [1.2] * 5)
    eig_dev = float(np.max(np.abs(np.sort(spec.values.real) - expected)))
    sym_dev = float(np.max(np.abs(G - G.T)))
    verdict = rank == 5 and eig_dev <= 1e-9
    return GadgetReport(
        name="gram-rank",
        residuals={"eigenvalue_deviation": eig_dev, "symmetry_deviation": sym_dev},
        verdict=verdict,
        margin=float(rank - 3),
        details={"rank": rank, "required_max_rank": 3},
    )


# ---------------------------------------------------------------------------
# Constants forced when the two rotated eigenvalues share one angle
# ---------------------------------------------------------------------------

def gadget_rotation_constants() -> GadgetReport:
    """Prove, in exact rationals, the constants forced by a shared rotation angle.

    With both rotated eigenvalues at the same angle a (c = cos a), the
    diagonal entry sqrt6 (1 + (e^{ia} - 1) r) is unimodular iff its weight
    r = g_k^2 + h_k^2 solves r^2 - r + 5/(12 (1 - c)) = 0, so r = 1/2 -+
    offset(c) with offset(c)^2 = disc(c) / (36 (1 - c)^2) and disc(c) =
    9c^2 - 3c - 6, real for c in [-1, -2/3].  Six weights summing to 2
    force cos a = -7/8 (so sin a = sqrt(15)/8) and r = 1/3, and offset(c)
    <= sqrt(6)/12 on the whole range, with equality only at c = -1.

    Every residual is an exact ``Fraction`` (reported as its float) and the
    verdict is that each one is zero.  The identities in c are polynomials
    of degree <= 2 once their denominators are cleared, so they hold for
    every c because they hold at three distinct points.
    """
    def disc(c):
        return 9 * c * c - 3 * c - 6

    # 1/4 - 5/(12 (1 - c)) = offset(c)^2 and 1/24 - offset(c)^2 =
    # 5 (c + 1) / (24 (1 - c)), times 36 (1 - c)^2 and 72 (1 - c)^2
    samples = (-1, 0, 1)
    formula_dev = max(abs(9 * (1 - c) ** 2 - 15 * (1 - c) - disc(c)) for c in samples)
    bound_dev = max(abs(3 * (1 - c) ** 2 - 2 * disc(c) - 15 * (c + 1) * (1 - c)) for c in samples)
    # on [-1, -2/3] the linear c + 1 is least at -1 and 1 - c at -2/3, so
    # 1/24 - offset(c)^2 >= 0 there; (sqrt(6)/12)^2 = 1/24 = offset(-1)^2
    lo, hi = Fraction(-1), Fraction(-2, 3)
    bound_overshoot = max(bound_dev, -(lo + 1), -(1 - hi), 0)
    bound_gap = abs(Fraction(6, 144) - disc(lo) / (36 * (1 - lo) ** 2))

    # 6 (1/2 - offset) = 2 means disc(c) = (1 - c)^2, i.e. 8c^2 - c - 7 =
    # (8c + 7)(c - 1) = 0; the roots multiply to -7/8 and c = 1 is excluded
    c = Fraction(-7, 8)
    cos_dev = max(abs(8 * x * x - x - 7) for x in (c, 1))
    sin_dev = abs(1 - c * c - Fraction(15, 64))
    root = Fraction(15, 8)  # disc(-7/8) = 225/64, so offset(-7/8) is rational
    r = Fraction(1, 2) - root / (6 * (1 - c))
    r_dev = max(abs(disc(c) - root * root), abs(6 * r - 2))
    # |1 + (e^{ia} - 1) r|^2 = (1 - r)^2 + r^2 + 2 r (1 - r) c
    diag_dev = abs(6 * ((1 - r) ** 2 + r * r + 2 * r * (1 - r) * c) - 1)

    residuals = {
        "cos_a_deviation": cos_dev,
        "sin_a_deviation": sin_dev,
        "weight_deviation": r_dev,
        "root_formula_deviation": formula_dev,
        "diagonal_modulus_deviation": diag_dev,
        "bound_overshoot": bound_overshoot,
        "bound_attainment_gap": bound_gap,
    }
    return GadgetReport(
        name="rotation-constants",
        residuals={key: float(value) for key, value in residuals.items()},
        verdict=not any(residuals.values()),
        margin=1e-10 - float(max(cos_dev, r_dev, sin_dev)),
        details={"cos_a": float(c), "weight": float(r), "offset_bound": SQRT6 / 12.0},
    )


# ---------------------------------------------------------------------------
# Rank dichotomy for a real pair of rotated eigenvectors
# ---------------------------------------------------------------------------

def real_pair_matrix(d, f, a: float, b: float) -> np.ndarray:
    """H from real rotated eigenvectors d, f at angles a, b (4-fold sqrt 6)."""
    d = np.asarray(d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    Pd = np.outer(d, d).astype(np.complex128)
    Pf = np.outer(f, f).astype(np.complex128)
    eye = np.eye(len(d), dtype=np.complex128)
    return SQRT6 * (eye - Pd - Pf) + SQRT6 * np.exp(1j * a) * Pd + SQRT6 * np.exp(1j * b) * Pf


def gadget_real_pair_rank(d, f, a: float | None = None, b: float | None = None) -> GadgetReport:
    """Rank dichotomy for the constraint matrix of a real eigenvector pair.

    Builds D with rows [1; d_k^2; f_k^2; d_k f_k].  A CHM built on (d, f)
    would require rank(D) <= 3; generically rank(D) = 4 (the constraints are
    unsatisfiable), and in the rank <= 3 regime at least four columns of D
    must coincide, which plants a rank-one 4x2 block in the reconstructed
    matrix.  Verdict passes when either horn of the dichotomy is observed.
    When angles ``a, b`` are given the matrix is reconstructed and scanned.
    """
    d = np.asarray(d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if d.shape != (6,) or f.shape != (6,):
        raise ValueError("d and f must be real 6-vectors")
    if not np.all((d > 0.0) & (d < 1.0)):
        raise ValueError("entries of d must lie strictly in (0, 1)")
    if not np.all((f != 0.0) & (np.abs(f) < 1.0)):
        raise ValueError("entries of f must be nonzero and lie in (-1, 1)")
    for label, val in (("sum d^2", np.sum(d**2) - 1.0), ("sum f^2", np.sum(f**2) - 1.0),
                       ("sum d f", np.sum(d * f))):
        if not abs(val) <= 1e-8:
            raise ValueError(f"precondition violated: {label} off by {val:.3e}")

    D = np.vstack([np.ones(6), d**2, f**2, d * f])
    rank = numerical_rank(D, tol=1e-8)

    # coincident-column analysis
    diffs = np.linalg.norm(D[:, :, None] - D[:, None, :], axis=0)
    groups = []
    used = set()
    for i in range(6):
        if i in used:
            continue
        group = [i] + [j for j in range(i + 1, 6) if j not in used and diffs[i, j] <= 1e-8]
        used.update(group)
        groups.append(tuple(group))
    largest = max(groups, key=len)

    residuals = {"column_coincidence_max_size": float(len(largest))}
    witnesses = []
    details: dict = {
        "rank_D": rank,
        "required_max_rank": 3,
        "column_groups": [list(g) for g in groups],
    }
    if rank >= 4:
        branch = "rank-4-unsatisfiable"
        verdict = True
        margin = 1.0
    elif len(largest) >= 4:
        branch = "rank-3-coincident-columns"
        verdict = True
        margin = 1.0
        if a is not None and b is not None:
            H = real_pair_matrix(d, f, a, b)
            rep = chm_residuals(H)
            residuals["entry_modulus_residual"] = rep.unimodularity_residual
            asym = float(np.max(np.abs(np.abs(H) - np.abs(H.T))))
            residuals["modulus_asymmetry"] = asym
            witnesses = rank_one_submatrix_scan(H, 4, 2, tol=1e-8)
            details["rank_one_4x2_count"] = len(witnesses)
    else:
        branch = f"rank-{rank}-no-coincidence"
        verdict = False
        margin = 0.0
    details["branch"] = branch
    return GadgetReport(
        name="real-pair-rank",
        residuals=residuals,
        verdict=verdict,
        margin=margin,
        witnesses=witnesses,
        details=details,
    )


def sample_real_pair(rng: np.random.Generator):
    """Random feasible (d, f): unit norms, orthogonal, entries in range."""
    while True:
        d = rng.uniform(0.05, 0.95, 6)
        d /= np.linalg.norm(d)
        raw = rng.standard_normal(6)
        raw -= d * np.dot(d, raw)
        nf = np.linalg.norm(raw)
        if nf < 1e-6:
            continue
        f = raw / nf
        if np.all(d > 0) and np.all(d < 1) and np.all(np.abs(f) > 1e-4) and np.all(np.abs(f) < 1):
            return d, f
