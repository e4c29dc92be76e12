"""chmkit: complex Hadamard matrix generators, verifiers, gadgets and search."""

from .core import (
    ChmReport,
    DegenerateInputError,
    DimensionError,
    MonomialUnitary,
    apply_equivalence,
    as_matrix,
    chm_residuals,
    dephase,
    is_dephased,
    matrix_from_json,
    matrix_to_json,
    numerical_rank,
    rank_one_submatrix_scan,
    read_matrix,
    singular_values,
)
from .eigen import (
    CLUSTER_TOL,
    ConvergenceError,
    EigenPair,
    Spectrum,
    eigenpairs,
    eigenvalues,
    spectrum_distance,
)
from .families import (
    BranchFailureError,
    gen_fourier,
    gen_haagerup,
    gen_hermitian,
    gen_tao,
    standard_corpus,
)
from .gadgets import (
    GadgetReport,
    ProjectorCombo,
    gadget_gram_rank,
    gadget_real_pair_rank,
    gadget_repeated_tail,
    gadget_rotation_constants,
    gadget_triple_eigenvalue,
    reconstruct_from_projectors,
)
from .mub import TrioReport, trio_check, unbiasedness_residual
from .search import SearchReport, SearchTask, gradient_check, minimize
from .spectral import (
    ConstantEigenpairReport,
    HermitianEquivalenceReport,
    VerifyReport,
    multiplicity_profile,
    verify_constant_eigenpairs,
    verify_hermitian_equivalence,
    verify_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
