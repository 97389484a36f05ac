"""hclab: a numerical laboratory for half-centered operators.

Finite matrix models of shift-like operators, commutation verdicts for the
gram-power family T*^k T^k, the moduli subspace and its chain decomposition,
joint spectra with the tau/beta structure sequences, and the classification
dichotomy: shift-plus-rank-one normal form versus a four-term polynomial
relation among the gram powers.
"""

from .chains import (
    ChainDecomposition,
    IsometryTower,
    chain_decomposition,
    effective_depth,
    isometry_tower,
    moduli_subspace,
    span_closure,
    verify_chain_structure,
    wandering_span,
)
from .classifier import (
    ClassificationReport,
    RelationCertificate,
    ShiftRankOneCertificate,
    classify,
    polynomial_machinery,
    recurrence_residual,
    relation_detect,
    shift_rank_one_reconstruct,
)
from .commutation import (
    CommutationReport,
    analysis_depth,
    centered_check,
    centered_criterion,
    co_gram_power,
    gram_power,
    half_centered_check,
    kernel_of_adjoint,
)
from .linalg import (
    PolarPair,
    hermitian_eig,
    polar,
    positive_sqrt,
)
from .matio import dumps_matrix, loads_matrix
from .operators import (
    OperatorModel,
    ToleranceConfig,
    aq_operator,
    cauchy_dual,
    composition_operator,
    from_matrix,
    load_operator_spec,
    projection_product,
    shift_plus_rank_one,
    weighted_shift,
)
from .spectral import (
    JointSpectrum,
    StructureData,
    TripleRecord,
    enumerate_triples,
    joint_diagonalize,
    spectral_correspondence_check,
    structure_extract,
)
from .subspaces import Subspace, orthonormalize, project, subspace_ominus, subspace_sum

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
