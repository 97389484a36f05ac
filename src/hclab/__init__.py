"""hclab: a numerical laboratory for half-centered operators.

Finite matrix models of shift-like operators, commutation verdicts for the
gram-power family T*^k T^k, the moduli subspace and its chain decomposition,
joint spectra with the tau/beta structure sequences, and the classification
dichotomy: shift-plus-rank-one normal form versus a four-term polynomial
relation among the gram powers.
"""

from .chains import (
    ChainDecomposition,
    chain_decomposition,
    isometry_tower,
    verify_chain_structure,
)
from .classifier import (
    classify,
    recurrence_residual,
    relation_detect,
    shift_rank_one_reconstruct,
)
from .commutation import (
    analysis_depth,
    centered_check,
    centered_criterion,
    effective_depth,
    gram_power,
    half_centered_check,
    kernel_of_adjoint,
)
from .linalg import hermitian_eig, polar, positive_sqrt
from .matio import dumps_matrix, loads_matrix
from .operators import (
    OperatorModel,
    ToleranceConfig,
    aq_operator,
    composition_operator,
    from_matrix,
    load_operator_spec,
    projection_product,
    real_gauge,
    shift_plus_rank_one,
    weighted_shift,
)
from .spectral import (
    JointSpectrum,
    StructureData,
    enumerate_triples,
    joint_diagonalize,
    spectral_correspondence_check,
    structure_extract,
)
from .subspaces import Subspace, orthonormalize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
