"""Exact generators for the named 6x6 CHM families (plus Fourier matrices).

Each generator returns a dephased complex Hadamard matrix as a numpy array.
Parameter domains are validated up front; every generated member passes
:func:`chmkit.core.chm_residuals` at the default tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_matrix

#: lower edge of the valid |theta| range for the Hermitian family
HERMITIAN_THETA_MIN = math.acos((-1.0 + math.sqrt(3.0)) / 2.0)


class BranchFailureError(ValueError):
    """No square-root branch produced unimodular parameters; carries both moduli."""

    def __init__(self, name: str, moduli):
        self.name = name
        self.moduli = tuple(moduli)
        super().__init__(
            f"no branch yields unimodular {name}; candidate moduli {self.moduli}"
        )


def gen_fourier(n: int) -> np.ndarray:
    """The n x n Fourier matrix with entries exp(2 pi i j k / n)."""
    if n < 2:
        raise ValueError(f"Fourier matrix needs n >= 2, got {n}")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


# Exponent pattern of the Tao matrix: entry (j, k) is omega**TAO_PATTERN[j, k].
_TAO_PATTERN = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 2, 2],
        [0, 1, 0, 2, 2, 1],
        [0, 1, 2, 0, 1, 2],
        [0, 2, 2, 1, 0, 1],
        [0, 2, 1, 2, 1, 0],
    ]
)


def gen_tao(omega_branch: int = 1) -> np.ndarray:
    """The symmetric 6x6 Tao matrix over the cube roots of unity.

    ``omega_branch`` selects omega = exp(2 pi i / 3) (branch 1, default) or
    its square exp(4 pi i / 3) (branch 2).
    """
    if omega_branch not in (1, 2):
        raise ValueError(f"omega_branch must be 1 or 2, got {omega_branch!r}")
    omega = np.exp(2j * np.pi * omega_branch / 3.0)
    return omega ** _TAO_PATTERN


def gen_haagerup(q: complex) -> np.ndarray:
    """The one-parameter Haagerup matrix H6(q), |q| = 1."""
    q = complex(q)
    if not abs(abs(q) - 1.0) <= 1e-12:
        raise ValueError(f"q must be unimodular within 1e-12, got |q| = {abs(q)!r}")
    i = 1j
    p = 1.0 / q
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, i, i, -i, -i],
            [1, i, -1, -i, q, -q],
            [1, i, -i, -1, -q, q],
            [1, -i, p, -p, i, -1],
            [1, -i, -p, p, -1, i],
        ],
        dtype=np.complex128,
    )


def hermitian_parameters(theta: float):
    """Solve for the unimodular parameters (y, z, x, t) of the Hermitian family.

    y = exp(i theta); z is a rational function of y; x and t share a square
    root whose branch is chosen so that |x| = |t| = 1 (principal branch first,
    negated on failure).  Raises :class:`BranchFailureError` when neither
    branch is unimodular and ``ValueError`` when z fails to be unimodular.
    """
    y = np.exp(1j * theta)
    z = (1 + 2 * y - y**2) / (y * (-1 + 2 * y + y**2))
    root = np.sqrt(2) * np.sqrt(complex(1 + 2 * y + 2 * y**3 + y**4))
    moduli = []
    for branch in (root, -root):
        x = (1 + 2 * y + y**2 - branch) / (1 + 2 * y - y**2)
        t = (1 + 2 * y + y**2 - branch) / (-1 + 2 * y + y**2)
        worst = max(abs(abs(x) - 1.0), abs(abs(t) - 1.0))
        moduli.append((float(abs(x)), float(abs(t))))
        if worst <= 1e-9:
            if abs(abs(z) - 1.0) > 1e-9:
                raise ValueError(f"z is not unimodular at theta={theta}: |z| = {abs(z)}")
            return y, z, x, t
    raise BranchFailureError("x, t", moduli)


def gen_hermitian(theta: float) -> np.ndarray:
    """The Hermitian 6x6 CHM family member at angle ``theta``.

    Valid for |theta| in [arccos((-1+sqrt 3)/2), pi]; outside that range the
    square root driving x and t leaves the unit circle.
    """
    theta = float(theta)
    if not (HERMITIAN_THETA_MIN - 1e-12 <= abs(theta) <= math.pi + 1e-12):
        raise ValueError(
            f"theta={theta} outside valid domain: need {HERMITIAN_THETA_MIN:.6f}"
            f" <= |theta| <= pi"
        )
    y, z, x, t = hermitian_parameters(theta)
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, 1 / x, -y, -1 / x, y],
            [1, x, -1, t, -t, -x],
            [1, -1 / y, 1 / t, -1, 1 / y, -1 / t],
            [1, -x, -1 / t, y, 1, 1 / z],
            [1, 1 / y, -1 / x, -t, z, 1],
        ],
        dtype=np.complex128,
    )


#: family kind -> (its generator, the ``chmkit gen`` option it reads: ``--n``,
#: ``--omega-branch``, ``--theta``, or for "q" the angle ``--q-arg`` of q)
FAMILIES = {
    "fourier": (gen_fourier, "n"),
    "tao": (gen_tao, "omega_branch"),
    "haagerup": (gen_haagerup, "q"),
    "hermitian": (gen_hermitian, "theta"),
}


#: unimodular q sample points used by the standard corpus and sweeps
Q_VALUES = tuple(
    np.exp(1j * phi) for phi in (math.pi / 5, math.pi / 2, 0.3, 1.0, 2.0, -0.7, 2.9, -2.2)
)

#: theta sample points inside the Hermitian family domain
THETA_VALUES = (math.pi, 2.9, 2.5, 2.0, 1.6, 1.3, -2.0, -1.4)


def standard_corpus() -> list:
    """The default verification corpus: 19 labelled family members.

    F6, both Tao branches, 8 Haagerup members and 8 Hermitian members.
    """
    corpus = [("fourier-6", gen_fourier(6))]
    corpus.append(("tao-w1", gen_tao(1)))
    corpus.append(("tao-w2", gen_tao(2)))
    for k, q in enumerate(Q_VALUES):
        corpus.append((f"haagerup-{k}", gen_haagerup(q)))
    for k, theta in enumerate(THETA_VALUES):
        corpus.append((f"hermitian-{k}", gen_hermitian(theta)))
    return [(name, as_matrix(m)) for name, m in corpus]
