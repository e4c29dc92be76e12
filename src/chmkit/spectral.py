"""Verifiers for the eigenstructure of dephased CHMs.

Every n x n CHM in dephased form has the two constant eigenpairs
(sqrt n, [1 + sqrt n, 1, ..., 1]) and (-sqrt n, [1 - sqrt n, 1, ..., 1]),
and all other eigenvectors vanish in their first coordinate.  For n = 6,
at most two of the four non-constant eigenvalues coincide, and being
Hermitian is equivalent to having a triple eigenvalue together with trace
zero, and equivalent to the spectrum {+sqrt 6 x3, -sqrt 6 x3}.
``verify_matrix`` certifies these facts for one matrix from one eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL, SQRT6, ChmReport, DegenerateInputError, _Report, as_matrix, chm_residuals,
    dephase, is_dephased,
)
from .eigen import (
    CLUSTER_TOL, ConvergenceError, Spectrum, cluster_indices, eigenpairs, eigenvalues,
)


def constant_eigenvectors(n: int) -> tuple:
    """The unnormalized constant eigenvectors v1, v2 of a dephased CHM."""
    rt = math.sqrt(n)
    v1 = np.ones(n, dtype=np.complex128)
    v2 = np.ones(n, dtype=np.complex128)
    v1[0] = 1.0 + rt
    v2[0] = 1.0 - rt
    return v1, v2


@dataclass(frozen=True)
class ConstantEigenpairReport(_Report):
    """Residuals for the constant eigenpairs and the first-coordinate law.

    ``vacuous`` is set when the matrix has no eigenvalues other than
    +-sqrt(n) (then ``max_first_coord`` is reported as 0).
    """

    n: int
    residual_plus: float
    residual_minus: float
    max_first_coord: float
    vacuous: bool


def _require_dephased_chm(H: np.ndarray, tol: float) -> None:
    if not is_dephased(H, tol):
        raise ValueError("matrix is not in dephased form (ones border required)")
    if not chm_residuals(H, tol).is_chm:
        raise ValueError("matrix fails the CHM conditions at the given tolerance")


def _check_tol(tol: float) -> float:
    """Tolerance of the constant-eigenpair checks for a validation tolerance
    ``tol``: the constant eigenvalues drift with the unitarity defect."""
    return max(1e-6, 100.0 * tol)


def verify_constant_eigenpairs(H, tol: float = 1e-10) -> ConstantEigenpairReport:
    """Check the constant eigenpairs of a dephased CHM directly.

    The +-sqrt(n) residuals need no eigensolve; the first-coordinate check
    runs the eigensolver and looks at every eigenvector whose value differs
    from +-sqrt(n) by more than max(1e-6, 100 tol), as ``verify_matrix`` does.
    """
    H = as_matrix(H)
    _require_dephased_chm(H, tol)
    return _constant_leg(H, eigenpairs(H), _check_tol(tol))


def _constant_leg(D: np.ndarray, pairs: list, exclude_tol: float) -> ConstantEigenpairReport:
    n = D.shape[0]
    rt = math.sqrt(n)
    v1, v2 = constant_eigenvectors(n)
    first = [
        abs(p.vector[0]) for p in pairs if min(abs(p.value - rt), abs(p.value + rt)) > exclude_tol
    ]
    return ConstantEigenpairReport(
        n=n, residual_plus=float(np.linalg.norm(D @ v1 - rt * v1)),
        residual_minus=float(np.linalg.norm(D @ v2 + rt * v2)),
        max_first_coord=float(max(first, default=0.0)), vacuous=not first,
    )


def multiplicity_profile(spectrum, cluster_tol: float = CLUSTER_TOL) -> list:
    """Sorted (descending) eigenvalue-cluster sizes of a spectrum."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(np.asarray(spectrum))
    clusters = cluster_indices(spectrum.values, cluster_tol)
    return sorted((len(c) for c in clusters), reverse=True)


def _n6_multiplicity_holds(values) -> bool:
    """At n = 6: with one copy each of +-sqrt 6 set aside, no eigenvalue occurs more than twice."""
    rest = np.asarray(values, dtype=np.complex128)
    for c in (SQRT6, -SQRT6):
        rest = np.delete(rest, np.argmin(np.abs(rest - c)))
    return multiplicity_profile(rest)[0] <= 2


@dataclass(frozen=True)
class HermitianEquivalenceReport(_Report):
    """Joint certificate for the Hermitian / triple-eigenvalue equivalence.

    The three legs (Hermitian; triple eigenvalue and trace zero; spectrum
    equal to {+-sqrt 6} with multiplicity three each) must agree for every
    dephased 6x6 CHM.  ``counterexample`` carries diagnostics if they do not.
    """

    is_hermitian: bool
    has_triple_eigenvalue: bool
    trace_zero: bool
    spectrum_is_pm_sqrt6: bool
    equivalence_holds: bool
    hermiticity_residual: float
    trace_abs: float
    profile: tuple
    counterexample: dict | None = None

    @property
    def all_true(self) -> bool:
        return (
            self.is_hermitian
            and self.has_triple_eigenvalue
            and self.trace_zero
            and self.spectrum_is_pm_sqrt6
        )


def verify_hermitian_equivalence(H, tol: float = 1e-8) -> HermitianEquivalenceReport:
    """Test the three-way equivalence on a dephased 6x6 CHM.

    Returns a report rather than asserting, so violations (should any ever
    appear) can be consumed downstream as counterexample data.  ``tol``
    governs the dephased/CHM preconditions as well as the Hermitian and
    trace-zero legs; eigenvalues cluster at ``CLUSTER_TOL``.
    """
    H = as_matrix(H)
    if H.shape[0] != 6:
        raise ValueError("the equivalence check is specific to 6x6 matrices")
    _require_dephased_chm(H, tol)
    spec = eigenvalues(H)
    return _hermitian_leg(H, spec, multiplicity_profile(spec), tol)


def _hermitian_leg(D, spec, profile: list, tol: float) -> HermitianEquivalenceReport:
    herm_res = float(np.linalg.norm(D - D.conj().T))
    trace_abs = float(abs(np.trace(D)))
    pm_dev = float(np.max(np.minimum(np.abs(spec.values - SQRT6), np.abs(spec.values + SQRT6))))
    has_triple, trace_zero = profile[0] >= 3, trace_abs <= tol
    legs = {
        "is_hermitian": herm_res <= tol,
        "triple_and_trace_zero": has_triple and trace_zero,
        "spectrum_is_pm_sqrt6": pm_dev <= 1e-6,
    }
    holds = len(set(legs.values())) == 1
    counterexample = None if holds else {
        "spectrum": [[v.real, v.imag] for v in spec.values],
        "hermiticity_residual": herm_res,
        "trace_abs": trace_abs,
        "profile": list(profile),
        "legs": legs,
    }
    return HermitianEquivalenceReport(
        is_hermitian=legs["is_hermitian"], has_triple_eigenvalue=has_triple,
        trace_zero=trace_zero, spectrum_is_pm_sqrt6=legs["spectrum_is_pm_sqrt6"],
        equivalence_holds=holds, hermiticity_residual=herm_res, trace_abs=trace_abs,
        profile=tuple(profile), counterexample=counterexample,
    )


@dataclass(frozen=True)
class VerifyReport(_Report):
    """What ``verify_matrix`` certified, leg by leg; ``failed`` names the first
    leg that failed (None when verified).  Legs that did not run are None and
    left out of ``to_dict``."""

    n: int
    tol: float
    chm: ChmReport
    dephased: bool | None = None
    dephase_error: str | None = None
    constant_eigenpairs: ConstantEigenpairReport | None = None
    multiplicity_profile: list | None = None
    spectrum: list | None = None
    hermitian_equivalence: HermitianEquivalenceReport | None = None
    verifier_error: str | None = None
    verified: bool = False
    failed: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None or k == "failed"}


def verify_matrix(H, tol: float = DEFAULT_TOL) -> VerifyReport:
    """Certify that ``H`` is a CHM and check the paper's facts on its dephased form D.

    The legs, in the order in which ``failed`` names the first that fails:
    ``chm`` (``chm_residuals(H, tol)``), ``dephase``, ``constant_eigenpairs``
    (residuals and first coordinates within max(1e-6, 100 tol)), and at
    n = 6 only ``multiplicity_profile`` (no eigenvalue more than twice once
    one copy each of +-sqrt 6 is set aside) and ``hermitian_equivalence``;
    ``verifier_error`` means the eigensolver failed.  One ``eigenpairs(D)``
    solve feeds every spectral leg and the reported spectrum, and one
    clustering gives the reported profile and the Hermitian leg's.
    """
    H = as_matrix(H)
    n = H.shape[0]
    chm = chm_residuals(H, tol)
    if not chm.is_chm:
        return VerifyReport(n=n, tol=tol, chm=chm, failed="chm")
    try:
        D, _, _ = dephase(H)
    except DegenerateInputError as exc:
        return VerifyReport(n=n, tol=tol, chm=chm, dephase_error=str(exc), failed="dephase")
    base = {"n": n, "tol": tol, "chm": chm, "dephased": is_dephased(H, tol)}
    try:
        pairs = eigenpairs(D)
    except (ValueError, ConvergenceError) as exc:
        return VerifyReport(**base, verifier_error=str(exc), failed="verifier_error")

    check_tol = _check_tol(tol)
    spectrum = Spectrum(np.array([p.value for p in pairs]))
    ce = _constant_leg(D, pairs, exclude_tol=check_tol)
    profile = multiplicity_profile(spectrum)
    eq = _hermitian_leg(D, spectrum, profile, 1e-8) if n == 6 else None
    failed = None
    if not all(r <= check_tol for r in (ce.residual_plus, ce.residual_minus, ce.max_first_coord)):
        failed = "constant_eigenpairs"
    elif n == 6 and not _n6_multiplicity_holds(spectrum.values):
        failed = "multiplicity_profile"
    elif n == 6 and not eq.equivalence_holds:
        failed = "hermitian_equivalence"
    return VerifyReport(
        **base, constant_eigenpairs=ce, multiplicity_profile=profile,
        spectrum=[[v.real, v.imag] for v in spectrum.values], hermitian_equivalence=eq,
        verified=failed is None, failed=failed,
    )
