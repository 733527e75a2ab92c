"""Rotation recovery for tetrahedra from orthographic vertex projections.

Given a known tetrahedron with centroid at the origin and the top-view
shadow of its vertices after an unknown rotation, this package recovers the
candidate rotations (labeled and unlabeled), classifies when the answer is
ambiguous, computes the dimension of every ambiguity family, and samples
ambiguous instances.
"""

from .geom import (
    ALL_PERMUTATIONS,
    CANONICAL_PERMUTATION,
    DEFAULT_TOLERANCES,
    IDENTITY_PERMUTATION,
    PermClass,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    coplanarity_det,
    project,
    quad_match,
)
from .rotation import (
    AxisAngle,
    AxisClass,
    UnitQuaternion,
    apply,
    classify_rotation,
    matrix_to_quat,
    quat_from_axis_angle,
    quat_to_axis_angle,
    quat_to_matrix,
)
from .configspace import (
    CLASSIFICATION_CELLS,
    CaseCell,
    MidpointFrame,
    build_config_matrix,
    case_label,
    config_dimension,
    fourcycle_lambda,
    midpoint_frame,
    minor_sigma_id,
    null_space_basis,
    numeric_rank,
    predicted_dimension,
    sample_cell_rotation,
    sample_tetrahedron,
    verify_fourcycle_relations,
)
from .solver import (
    Circle3D,
    CollinearPointsError,
    DegenerateChordError,
    DegenerateTetrahedronError,
    DegenerateViewError,
    SolveCandidate,
    circumcircle3,
    dedupe_rotations,
    labeled_solve,
    prune_permutations,
    reconstruct_geometric,
    unlabeled_solve,
)

__version__ = "0.1.0"
