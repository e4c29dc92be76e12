"""Verifiers for the eigenstructure of dephased CHMs.

Every n x n CHM in dephased form has the two constant eigenpairs
(sqrt n, [1 + sqrt n, 1, ..., 1]) and (-sqrt n, [1 - sqrt n, 1, ..., 1]),
and all other eigenvectors vanish in their first coordinate.  For n = 6,
being Hermitian is equivalent to having a triple eigenvalue together with
trace zero, and equivalent to the spectrum {+sqrt 6 x3, -sqrt 6 x3}.
The functions here certify these facts numerically for given matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SQRT6, as_matrix, chm_residuals, is_dephased
from .eigen import CLUSTER_TOL, Spectrum, cluster_indices, eigenpairs


def constant_eigenvectors(n: int) -> tuple:
    """The unnormalized constant eigenvectors v1, v2 of a dephased CHM."""
    rt = math.sqrt(n)
    v1 = np.ones(n, dtype=np.complex128)
    v2 = np.ones(n, dtype=np.complex128)
    v1[0] = 1.0 + rt
    v2[0] = 1.0 - rt
    return v1, v2


@dataclass(frozen=True)
class ConstantEigenpairReport:
    """Residuals for the constant eigenpairs and the first-coordinate law.

    ``vacuous`` is set when the matrix has no eigenvalues other than
    +-sqrt(n) (then ``max_first_coord`` is reported as 0).
    """

    n: int
    residual_plus: float
    residual_minus: float
    max_first_coord: float
    vacuous: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "residual_plus": self.residual_plus,
            "residual_minus": self.residual_minus,
            "max_first_coord": self.max_first_coord,
            "vacuous": self.vacuous,
        }


def verify_constant_eigenpairs(
    H, tol: float = 1e-10, exclude_tol: float = 1e-6
) -> ConstantEigenpairReport:
    """Check the constant eigenpairs of a dephased CHM directly.

    The +-sqrt(n) residuals need no eigensolve; the first-coordinate check
    runs the eigensolver and looks at every eigenvector whose value differs
    from +-sqrt(n) by more than ``exclude_tol`` (widen this along with
    ``tol`` when validating approximate CHMs, since the constant eigenvalues
    drift with the unitarity defect).
    """
    H = as_matrix(H)
    n = H.shape[0]
    if not is_dephased(H, tol):
        raise ValueError("matrix is not in dephased form (ones border required)")
    if not chm_residuals(H, tol).is_chm:
        raise ValueError("matrix fails the CHM conditions at the given tolerance")
    rt = math.sqrt(n)
    v1, v2 = constant_eigenvectors(n)
    residual_plus = float(np.linalg.norm(H @ v1 - rt * v1))
    residual_minus = float(np.linalg.norm(H @ v2 + rt * v2))

    others = [
        p
        for p in eigenpairs(H)
        if abs(p.value - rt) > exclude_tol and abs(p.value + rt) > exclude_tol
    ]
    if others:
        max_first = max(abs(p.vector[0]) for p in others)
        vacuous = False
    else:
        max_first, vacuous = 0.0, True
    return ConstantEigenpairReport(
        n=n,
        residual_plus=residual_plus,
        residual_minus=residual_minus,
        max_first_coord=float(max_first),
        vacuous=vacuous,
    )


def multiplicity_profile(spectrum, cluster_tol: float = CLUSTER_TOL) -> list:
    """Sorted (descending) eigenvalue-cluster sizes of a spectrum."""
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(np.asarray(spectrum))
    clusters = cluster_indices(spectrum.values, cluster_tol)
    return sorted((len(c) for c in clusters), reverse=True)


@dataclass(frozen=True)
class HermitianEquivalenceReport:
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

    def to_dict(self) -> dict:
        return {
            "is_hermitian": self.is_hermitian,
            "has_triple_eigenvalue": self.has_triple_eigenvalue,
            "trace_zero": self.trace_zero,
            "spectrum_is_pm_sqrt6": self.spectrum_is_pm_sqrt6,
            "equivalence_holds": self.equivalence_holds,
            "hermiticity_residual": self.hermiticity_residual,
            "trace_abs": self.trace_abs,
            "profile": list(self.profile),
            "counterexample": self.counterexample,
        }


def verify_hermitian_equivalence(
    H, tol: float = 1e-8, cluster_tol: float = CLUSTER_TOL, pre_tol: float = 1e-8
) -> HermitianEquivalenceReport:
    """Test the three-way equivalence on a dephased 6x6 CHM.

    Returns a report rather than asserting, so violations (should any ever
    appear) can be consumed downstream as counterexample data.  ``pre_tol``
    governs the dephased/CHM preconditions.
    """
    H = as_matrix(H)
    if H.shape[0] != 6:
        raise ValueError("the equivalence check is specific to 6x6 matrices")
    if not is_dephased(H, pre_tol):
        raise ValueError("matrix is not in dephased form")
    if not chm_residuals(H, pre_tol).is_chm:
        raise ValueError("matrix fails the CHM conditions")

    from .eigen import eigenvalues  # deferred to keep module import light

    herm_res = float(np.linalg.norm(H - H.conj().T))
    is_herm = herm_res <= tol
    spec = eigenvalues(H)
    profile = tuple(multiplicity_profile(spec, cluster_tol))
    has_triple = profile[0] >= 3
    trace_abs = float(abs(np.trace(H)))
    trace_zero = trace_abs <= tol
    pm_dev = float(
        np.max(np.minimum(np.abs(spec.values - SQRT6), np.abs(spec.values + SQRT6)))
    )
    pm_sqrt6 = pm_dev <= 1e-6

    legs = (is_herm, has_triple and trace_zero, pm_sqrt6)
    holds = len(set(legs)) == 1
    counterexample = None
    if not holds:
        counterexample = {
            "spectrum": [[v.real, v.imag] for v in spec.values],
            "hermiticity_residual": herm_res,
            "trace_abs": trace_abs,
            "profile": list(profile),
            "legs": {
                "is_hermitian": legs[0],
                "triple_and_trace_zero": legs[1],
                "spectrum_is_pm_sqrt6": legs[2],
            },
        }
    return HermitianEquivalenceReport(
        is_hermitian=is_herm,
        has_triple_eigenvalue=has_triple,
        trace_zero=trace_zero,
        spectrum_is_pm_sqrt6=pm_sqrt6,
        equivalence_holds=holds,
        hermiticity_residual=herm_res,
        trace_abs=trace_abs,
        profile=profile,
        counterexample=counterexample,
    )
