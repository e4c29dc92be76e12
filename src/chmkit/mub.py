"""Unbiasedness residuals linking CHMs to mutually unbiased bases.

Two orthonormal bases (given as the columns of unitary matrices) are
mutually unbiased when every cross inner product has modulus 1/sqrt(d).
A unitary U is unbiased against the identity exactly when sqrt(d) * U is
a CHM, which is the bridge this module measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, _Report, _require_tolerance, as_matrix


def _require_unitary(M: np.ndarray, label: str, tol: float) -> None:
    n = M.shape[0]
    dev = float(np.linalg.norm(M.conj().T @ M - np.eye(n)))
    if dev > tol:
        raise ValueError(f"{label} is not unitary within {tol:g} (deviation {dev:.3e})")


def unbiasedness_residual(A, B, tol: float = 1e-10) -> float:
    """Max over (m, n) of | |<a_m, b_n>| - 1/sqrt(d) | for unitary A, B;
    ``tol`` must be finite and nonnegative (else ``ValueError``)."""
    _require_tolerance(tol)
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")
    _require_unitary(A, "first basis", tol)
    _require_unitary(B, "second basis", tol)
    return _residual(A, B)


def _residual(A: np.ndarray, B: np.ndarray) -> float:
    """``unbiasedness_residual`` of two complex arrays already checked unitary."""
    cross = np.abs(A.conj().T @ B)
    return float(np.max(np.abs(cross - 1.0 / math.sqrt(A.shape[0]))))


@dataclass(frozen=True)
class TrioReport(_Report):
    """Pairwise unbiasedness residuals among {I, H1/sqrt6, H2/sqrt6, H3/sqrt6},
    keyed by basis-name pairs such as ("I", "H1"); the wire format joins a
    pair's names as "I|H1"."""

    residuals: dict
    max_residual: float
    worst_pair: tuple

    def to_dict(self) -> dict:
        residuals = {"|".join(k): v for k, v in self.residuals.items()}
        return {**super().to_dict(), "residuals": residuals}


def trio_check(H1, H2, H3, tol: float = 1e-8) -> TrioReport:
    """Check whether three CHMs form an MUB trio together with the identity;
    each H_k / sqrt(d) is checked unitary once, before any residual, at a
    ``tol`` that must be finite and nonnegative (else ``ValueError``)."""
    _require_tolerance(tol)
    mats = [as_matrix(H) for H in (H1, H2, H3)]
    d = mats[0].shape[0]
    for k, M in enumerate(mats):
        if M.shape[0] != d:
            raise DimensionError("all three matrices must share one dimension")
        _require_unitary(M / math.sqrt(d), f"H{k + 1}/sqrt(d)", tol)

    bases = [("I", np.eye(d, dtype=np.complex128))]
    bases += [(f"H{k + 1}", M / math.sqrt(d)) for k, M in enumerate(mats)]
    residuals = {}
    worst_pair, worst = None, -1.0
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            (na, Ua), (nb, Ub) = bases[i], bases[j]
            r = _residual(Ua, Ub)
            residuals[(na, nb)] = r
            if r > worst:
                worst, worst_pair = r, (na, nb)
    return TrioReport(residuals=residuals, max_residual=worst, worst_pair=worst_pair)
