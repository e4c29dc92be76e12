"""Executable impossibility constructions with pass/fail certificates.

Each gadget builds the matrix that a forbidden eigenvalue configuration
would force (via its spectral decomposition) and measures how the CHM
conditions break.  A gadget "passes" when the claimed violation is observed
with margin at least ``MARGIN`` -- i.e. the construction demonstrably fails
to be a CHM, certifying the corresponding nonexistence statement for the
supplied inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import SQRT6, as_matrix, chm_residuals, numerical_rank, rank_one_submatrix_scan
from .eigen import eigenvalues

#: minimum observed violation for a gadget verdict to count as a pass
MARGIN = 1e-6


@dataclass(frozen=True)
class GadgetReport:
    """Structured certificate: named residuals, witnesses, verdict, margin."""

    name: str
    residuals: dict
    verdict: bool
    margin: float
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residuals": self.residuals,
            "verdict": "pass" if self.verdict else "fail",
            "margin": self.margin,
            "witnesses": [[list(r), list(c)] for r, c in self.witnesses],
            "details": self.details,
        }


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

    Eigenvalue moduli must sit on the circle of radius sqrt(6) (the CHM
    eigenvalue circle); orthonormality is enforced by the combo itself.
    """
    mod_dev = float(np.max(np.abs(np.abs(combo.values) - SQRT6)))
    if mod_dev > 1e-6:
        raise ValueError(f"eigenvalue moduli must equal sqrt(6) (deviation {mod_dev:.3e})")
    V = combo.vectors
    return (V * combo.values) @ V.conj().T


# ---------------------------------------------------------------------------
# All non-constant eigenvalues equal (any n >= 4)
# ---------------------------------------------------------------------------

def repeated_tail_matrix(n: int, lam: complex) -> np.ndarray:
    """The matrix forced by the spectrum {+sqrt n, -sqrt n, lam x (n-2)}.

    Border of ones; interior diagonal (-1 + (n-2) lam)/(n-1) and interior
    off-diagonal (-1 - lam)/(n-1).
    """
    lam = complex(lam)
    H = np.full((n, n), (-1.0 - lam) / (n - 1), dtype=np.complex128)
    np.fill_diagonal(H, (-1.0 + (n - 2) * lam) / (n - 1))
    H[0, :] = 1.0
    H[:, 0] = 1.0
    return H


def gadget_repeated_tail(n: int, lam: complex) -> GadgetReport:
    """Certify that an (n-2)-fold repeated tail eigenvalue breaks the CHM laws.

    Residuals: the worst entry-modulus deviation and the inner product of
    rows 2 and 3 (which must vanish for a CHM).  Verdict passes when either
    exceeds the margin for the given eigenvalue.
    """
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    lam = complex(lam)
    rt = math.sqrt(n)
    if abs(abs(lam) - rt) > 1e-9:
        raise ValueError(f"|lam| must equal sqrt({n}) within 1e-9, got {abs(lam)!r}")
    H = repeated_tail_matrix(n, lam)
    modulus_residual = float(np.max(np.abs(np.abs(H) - 1.0)))
    row_product = complex(np.vdot(H[2], H[1]))  # <row2, row3> in math indexing
    row_residual = abs(row_product)
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
    if abs(abs(lam) - SQRT6) > 1e-9:
        raise ValueError(f"|lam| must equal sqrt(6) within 1e-9, got {abs(lam)!r}")
    if abs(abs(lam6) - SQRT6) > 1e-9:
        raise ValueError(f"|lam6| must equal sqrt(6) within 1e-9, got {abs(lam6)!r}")
    if abs(lam - lam6) <= 1e-9:
        raise ValueError("lam and lam6 must be distinct")
    a = np.asarray(a, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if a.shape != (5,) or t.shape != (4,):
        raise ValueError("need 5 nonnegative amplitudes and 4 angles")
    if np.any(a < 0):
        raise ValueError(f"amplitudes must be nonnegative, got {a}")
    norm_dev = abs(float(np.sum(a**2)) - 1.0)
    if norm_dev > 1e-8:
        raise ValueError(f"amplitudes must have unit norm (deviation {norm_dev:.3e})")
    ortho = abs(a[0] + np.sum(a[1:] * np.exp(1j * t)))
    if ortho > 1e-8:
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
    rep = chm_residuals(H)
    witnesses = rank_one_submatrix_scan(H, 2, 4, tol=1e-8)
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


def unimodular_diagonal_roots(lam: complex, lam6: complex) -> np.ndarray:
    """Nonnegative solutions x of |(-1 + 4 lam)/5 + x^2 (lam6 - lam)| = 1.

    |f(x)|^2 = 1 is a real quadratic in x^2, so there are at most two such
    roots; this is what forces three equal amplitudes among any five of them.
    """
    c = (-1.0 + 4.0 * complex(lam)) / 5.0
    d = complex(lam6) - complex(lam)
    # |c + s d|^2 = |d|^2 s^2 + 2 Re(c conj(d)) s + |c|^2, with s = x^2
    coeffs = [abs(d) ** 2, 2.0 * (c * d.conjugate()).real, abs(c) ** 2 - 1.0]
    if coeffs[0] == 0.0:
        return np.array([])
    roots = np.roots(coeffs)
    out = []
    for s in roots:
        if abs(s.imag) < 1e-12 and s.real >= -1e-15:
            out.append(math.sqrt(max(s.real, 0.0)))
    return np.unique(np.round(out, 12))


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

def _weight_offset(cos_a: np.ndarray) -> np.ndarray:
    """sqrt(9 cos^2 a - 3 cos a - 6) / (6 (1 - cos a)) on the valid range."""
    return np.sqrt(9.0 * cos_a**2 - 3.0 * cos_a - 6.0) / (6.0 * (1.0 - cos_a))


def gadget_rotation_constants() -> GadgetReport:
    """Reproduce the constants forced by a shared rotation angle.

    With both rotated eigenvalues at the same angle ``a``, unimodularity of
    the diagonal makes each weight r_k = g_k^2 + h_k^2 a root of a fixed
    quadratic; the weights summing to 2 then pins cos a = -7/8 (so
    sin a = sqrt(15)/8) and r = 1/3.  The offset term is also bounded by
    sqrt(6)/12 over the whole valid range.
    """
    # cos a = -7/8 from 6 (1/2 - offset) = 2  <=>  8 c^2 - c - 7 = 0, c != 1
    poly_roots = np.roots([8.0, -1.0, -7.0])
    c_star = float(min(poly_roots, key=lambda r: abs(r - (-0.875))).real)
    cos_dev = abs(c_star + 7.0 / 8.0)
    r_star = 0.5 - float(_weight_offset(np.array([c_star]))[0])
    r_dev = abs(r_star - 1.0 / 3.0)
    sin_star = math.sqrt(1.0 - c_star**2)
    sin_dev = abs(sin_star - math.sqrt(15.0) / 8.0)

    # the closed-form roots match a direct quadratic solve across the range
    cs = np.linspace(-1.0, -2.0 / 3.0, 101)
    formula_dev = 0.0
    for c in cs:
        roots = np.sort(np.roots([1.0, -1.0, 5.0 / (12.0 * (1.0 - c))]).real)
        offset = float(_weight_offset(np.array([c]))[0])
        closed = np.sort([0.5 - offset, 0.5 + offset])
        formula_dev = max(formula_dev, float(np.max(np.abs(roots - closed))))

    # bound sweep: 0 <= offset <= sqrt(6)/12, maximum attained at cos a = -1
    cg = np.linspace(-1.0, -2.0 / 3.0, 10_000)
    offsets = _weight_offset(cg)
    bound = SQRT6 / 12.0
    max_offset = float(np.max(offsets))
    bound_overshoot = max(0.0, max_offset - bound)
    bound_gap = abs(max_offset - bound)

    # direct check: at the forced constants the diagonal really is unimodular
    a_star = math.acos(c_star)
    diag_dev = abs(SQRT6 * abs(1.0 + (np.exp(1j * a_star) - 1.0) * r_star) - 1.0)

    verdict = (
        cos_dev <= 1e-10
        and r_dev <= 1e-10
        and sin_dev <= 1e-10
        and formula_dev <= 1e-10
        and diag_dev <= 1e-10
        and bound_overshoot <= 1e-12
        and bound_gap <= 1e-6
    )
    return GadgetReport(
        name="rotation-constants",
        residuals={
            "cos_a_deviation": cos_dev,
            "sin_a_deviation": sin_dev,
            "weight_deviation": r_dev,
            "root_formula_deviation": formula_dev,
            "diagonal_modulus_deviation": diag_dev,
            "bound_overshoot": bound_overshoot,
            "bound_attainment_gap": bound_gap,
        },
        verdict=verdict,
        margin=1e-10 - max(cos_dev, r_dev, sin_dev),
        details={"cos_a": c_star, "weight": r_star, "offset_bound": bound},
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
    if np.any((d <= 0.0) | (d >= 1.0)):
        raise ValueError("entries of d must lie strictly in (0, 1)")
    if np.any((f == 0.0) | (np.abs(f) >= 1.0)):
        raise ValueError("entries of f must be nonzero and lie in (-1, 1)")
    for label, val in (("sum d^2", np.sum(d**2) - 1.0), ("sum f^2", np.sum(f**2) - 1.0),
                       ("sum d f", np.sum(d * f))):
        if abs(val) > 1e-8:
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


# ---------------------------------------------------------------------------
# Symmetry identity for two rotated projectors
# ---------------------------------------------------------------------------

def projector_pair_matrix(g, s, h, t, a: float, b: float):
    """H from two rotated complex eigenvectors with moduli g, h, phases s, t.

    The eigenvectors are v5 = [g_0, g_1 e^{i s_1}, ...] and
    v6 = [h_0, h_1 e^{i t_1}, ...]; they must be orthonormal.  Returns
    ``(H, v5, v6)``.
    """
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    v5 = g * np.exp(1j * np.concatenate([[0.0], s]))
    v6 = h * np.exp(1j * np.concatenate([[0.0], t]))
    for label, v in (("v5", v5), ("v6", v6)):
        dev = abs(np.linalg.norm(v) - 1.0)
        if dev > 1e-8:
            raise ValueError(f"{label} must be a unit vector (deviation {dev:.3e})")
    ip = abs(np.vdot(v5, v6))
    if ip > 1e-8:
        raise ValueError(f"v5 and v6 must be orthogonal (inner product {ip:.3e})")
    P5 = np.outer(v5, v5.conj())
    P6 = np.outer(v6, v6.conj())
    eye = np.eye(len(g), dtype=np.complex128)
    H = SQRT6 * (eye - P5 - P6) + SQRT6 * np.exp(1j * a) * P5 + SQRT6 * np.exp(1j * b) * P6
    return H, v5, v6


def phase_symmetry_identity(g, s, h, t, a: float, b: float) -> GadgetReport:
    """Verify the closed form for the transpose modulus asymmetry of H.

    For H built from two rotated projectors the difference of squared entry
    moduli across the diagonal equals
    96 g_j g_k h_j h_k sin(a/2) sin((a-b)/2) sin(b/2) sin(s_j - s_k - t_j + t_k)
    in absolute value.  Both the identity deviation and the raw asymmetry are
    reported; a CHM would force the right-hand side to vanish.
    """
    H, _, _ = projector_pair_matrix(g, s, h, t, a, b)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    sf = np.concatenate([[0.0], np.asarray(s, dtype=np.float64)])
    tf = np.concatenate([[0.0], np.asarray(t, dtype=np.float64)])

    lhs = np.abs(np.abs(H) ** 2 - np.abs(H.T) ** 2)
    phase = sf[:, None] - sf[None, :] - tf[:, None] + tf[None, :]
    rhs = np.abs(
        96.0
        * np.outer(g, g)
        * np.outer(h, h)
        * math.sin(a / 2.0)
        * math.sin((a - b) / 2.0)
        * math.sin(b / 2.0)
        * np.sin(phase)
    )
    identity_dev = float(np.max(np.abs(lhs - rhs)))
    asym = float(np.max(np.abs(np.abs(H) - np.abs(H.T))))
    return GadgetReport(
        name="symmetry-identity",
        residuals={
            "identity_max_deviation": identity_dev,
            "max_modulus_asymmetry": asym,
        },
        verdict=identity_dev <= 1e-8,
        margin=1e-8 - identity_dev,
        details={"a": a, "b": b},
    )


def sample_projector_pair(rng: np.random.Generator):
    """Random orthonormal (g, s, h, t) with nonnegative real first components."""
    while True:
        z1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z1 /= np.linalg.norm(z1)
        z2 -= z1 * np.vdot(z1, z2)
        n2 = np.linalg.norm(z2)
        if n2 < 1e-6 or abs(z1[0]) < 1e-6 or abs(z2[0]) < 1e-6:
            continue
        z2 /= n2
        z1 *= z1[0].conjugate() / abs(z1[0])
        z2 *= z2[0].conjugate() / abs(z2[0])
        g, s = np.abs(z1), np.angle(z1[1:])
        h, t = np.abs(z2), np.angle(z2[1:])
        return g, s, h, t
