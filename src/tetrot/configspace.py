"""Rank analysis of the relabeled projection-match systems.

For a rotation q and a relabeling class, the centred tetrahedra whose
rotated vertices project onto their own projections (relabeled by the
canonical class representative) form a linear subspace of R^9 in the
coordinates (p1, p2, p3); the fourth vertex is -(p1+p2+p3).  This module
builds the 6x9 coefficient matrix of that system, measures its rank and
null space numerically, tabulates the predicted null-space dimension for
every axis/angle case, and samples tetrahedra from the null space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import CANONICAL_PERMUTATION, DEFAULT_TOLERANCES, PermClass, Permutation4, Tetrahedron
from .rotation import (
    AxisClass,
    UnitQuaternion,
    classify_rotation,
    quat_from_axis_angle,
    quat_to_axis_angle,
    quat_to_matrix,
)

__all__ = [
    "CLASSIFICATION_CELLS",
    "CaseCell",
    "MidpointFrame",
    "build_config_matrix",
    "case_label",
    "config_dimension",
    "fourcycle_lambda",
    "midpoint_frame",
    "minor_sigma_id",
    "null_space_basis",
    "numeric_rank",
    "predicted_dimension",
    "sample_cell_rotation",
    "sample_tetrahedron",
    "verify_fourcycle_relations",
]

HALF_TURN = math.pi
QUARTER_TURN = math.pi / 2
THIRD_TURN = 2 * math.pi / 3

_SPECIAL_ANGLES = (("half", HALF_TURN), ("quarter", QUARTER_TURN), ("third", THIRD_TURN))

# Predicted null-space dimension by (class, axis class, special angle name).
# None covers every other angle; a cell with no entry is generic, dimension 3.
_DIMENSION: dict[tuple[PermClass, AxisClass, str | None], int] = {
    (PermClass.IDENTITY, AxisClass.HORIZONTAL, None): 6,
    (PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, None): 5,
    (PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, "half"): 6,
    (PermClass.TWO_CYCLE, AxisClass.VERTICAL, "half"): 5,
    (PermClass.TWO_CYCLE, AxisClass.OBLIQUE, "half"): 4,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.HORIZONTAL, None): 4,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.HORIZONTAL, "half"): 6,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.VERTICAL, "half"): 7,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.OBLIQUE, "half"): 5,
    (PermClass.THREE_CYCLE, AxisClass.HORIZONTAL, None): 4,
    (PermClass.THREE_CYCLE, AxisClass.VERTICAL, "third"): 5,
    (PermClass.FOUR_CYCLE, AxisClass.VERTICAL, "half"): 5,
    (PermClass.FOUR_CYCLE, AxisClass.VERTICAL, "quarter"): 5,
    # a half-turn about any non-vertical axis leaves rank 5
    (PermClass.FOUR_CYCLE, AxisClass.OBLIQUE, "half"): 4,
    (PermClass.FOUR_CYCLE, AxisClass.HORIZONTAL, "half"): 4,
}


def _table_dimension(perm_class: PermClass, axis_class: AxisClass, special: str | None) -> int:
    generic = _DIMENSION.get((perm_class, axis_class, None), 3)
    return _DIMENSION.get((perm_class, axis_class, special), generic)


def _special_angle(alpha: float, angle_abs: float) -> str | None:
    """Name of the first special angle (half, quarter, third) within angle_abs of alpha, or None."""
    for name, value in _SPECIAL_ANGLES:
        if abs(alpha - value) <= angle_abs:
            return name
    return None


def _coupling(sigma: Permutation4) -> np.ndarray:
    """Read-only rotation-free part of the system: row block i holds
    -proj(p_sigma(i)), that is -I in column block sigma(i), or +I in all three
    column blocks when sigma(i) = 4, since p4 = -(p1 + p2 + p3)."""
    proj = np.eye(2, 3)
    m = np.zeros((6, 9))
    for i in range(3):
        rows = slice(2 * i, 2 * i + 2)
        # -0.0 is the exact additive identity: adding A to an otherwise empty
        # diagonal block reproduces A bit for bit, signed zeros included
        m[rows, 3 * i : 3 * i + 3] = -0.0
        j = sigma.image(i + 1) - 1
        if j == 3:
            m[rows] = np.tile(proj, 3)
        else:
            m[rows, 3 * j : 3 * j + 3] = -proj
    m.flags.writeable = False
    return m


_COUPLING = {perm_class: _coupling(sigma) for perm_class, sigma in CANONICAL_PERMUTATION.items()}


def build_config_matrix(q: UnitQuaternion, perm_class: PermClass) -> np.ndarray:
    """6x9 coefficient matrix of the projection-match system for the class.

    With sigma the canonical permutation of the class and A the top two
    rows of the rotation matrix of q, the system is A p_i = proj(p_sigma(i))
    for i = 1, 2, 3, with p4 = -(p1 + p2 + p3) by the centroid condition.
    Variables are ordered p1_x, p1_y, p1_z, p2_x, ..., p3_z; rows 2i-1 and
    2i carry the x and y equation of block i.
    """
    m = _COUPLING[perm_class].copy()
    a = quat_to_matrix(q)[:2]
    for i in range(3):
        m[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] += a
    return m


def _rank(s: np.ndarray, rel_tol: float) -> int:
    """Count of singular values s (descending) above rel_tol times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def numeric_rank(m, rel_tol: float = DEFAULT_TOLERANCES.rank_rel) -> int:
    """Count of singular values above rel_tol times the largest one."""
    return _rank(np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False), rel_tol)


def null_space_basis(m, rel_tol: float = DEFAULT_TOLERANCES.rank_rel) -> np.ndarray:
    """Orthonormal basis of the null space, one vector per row."""
    _, s, vh = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=True)
    return vh[_rank(s, rel_tol):]


def config_dimension(
    q: UnitQuaternion,
    perm_class: PermClass,
    rel_tol: float = DEFAULT_TOLERANCES.rank_rel,
    angle_abs: float = DEFAULT_TOLERANCES.angle_abs,
) -> int:
    """Null-space dimension of the projection-match system, 9 - rank."""
    if classify_rotation(q, angle_abs)[0] is AxisClass.NO_AXIS:
        raise ValueError("the identity rotation is excluded from dimension analysis")
    return 9 - numeric_rank(build_config_matrix(q, perm_class), rel_tol)


def predicted_dimension(
    perm_class: PermClass,
    axis_class: AxisClass,
    alpha: float,
    angle_abs: float = DEFAULT_TOLERANCES.angle_abs,
) -> int:
    """Predicted null-space dimension for an axis class and angle.

    The table gives 3 in the generic case and a larger value in the special
    cells listed per class.  Requires a non-identity rotation (alpha > 0).
    """
    if axis_class is AxisClass.NO_AXIS or not alpha > angle_abs:
        raise ValueError("rotation must differ from the identity")
    return _table_dimension(perm_class, axis_class, _special_angle(alpha, angle_abs))


def case_label(axis_class: AxisClass, alpha: float, angle_abs: float = DEFAULT_TOLERANCES.angle_abs) -> str:
    """Geometric label of a rotation's case cell, e.g. 'vertical-half-turn'."""
    if axis_class is AxisClass.NO_AXIS:
        return "identity"
    special = _special_angle(alpha, angle_abs)
    return axis_class.value if special is None else f"{axis_class.value}-{special}-turn"


def minor_sigma_id(q: UnitQuaternion) -> float:
    """Classification discriminant of the identity-class system.

    Eight times the determinant of the 6x6 submatrix in columns
    (1, 2, 4, 5, 7, 8) of the half-scaled identity-class coefficient
    matrix.  Equals 8*d**6 for a unit quaternion and vanishes exactly when
    the rotation axis is horizontal.
    """
    m = build_config_matrix(q, PermClass.IDENTITY) / 2.0
    sub = m[:, [0, 1, 3, 4, 6, 7]]
    return 8.0 * float(np.linalg.det(sub))


def sample_tetrahedron(
    q: UnitQuaternion,
    perm_class: PermClass,
    seed,
    rel_tol: float = DEFAULT_TOLERANCES.rank_rel,
    angle_abs: float = DEFAULT_TOLERANCES.angle_abs,
) -> Tetrahedron:
    """Draw a random member of the null space as a tetrahedron.

    Coefficients are drawn uniformly from the unit sphere of the null space
    and the result is scaled to unit RMS vertex norm, so invariant checks
    are scale free.  `seed` may be an int or a numpy Generator.  The
    projection of the rotated result matches the projection of the result
    itself under the canonical permutation of the class.
    """
    basis = _null_space(q, perm_class, rel_tol, angle_abs)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _draw(basis, rng)


def _null_space(q: UnitQuaternion, perm_class: PermClass, rel_tol: float, angle_abs: float) -> np.ndarray:
    """Null-space basis of the class's system, one vector per row; q must not be the identity."""
    if classify_rotation(q, angle_abs)[0] is AxisClass.NO_AXIS:
        raise ValueError("the identity rotation is excluded from dimension analysis")
    return null_space_basis(build_config_matrix(q, perm_class), rel_tol)


def _draw(basis: np.ndarray, rng: np.random.Generator) -> Tetrahedron:
    """One tetrahedron from a uniform direction in the span of the basis rows, at unit RMS vertex norm."""
    coeffs = rng.standard_normal(basis.shape[0])
    norm = np.linalg.norm(coeffs)
    while norm == 0.0:
        coeffs = rng.standard_normal(basis.shape[0])
        norm = np.linalg.norm(coeffs)
    vec = (coeffs / norm) @ basis
    p123 = vec.reshape(3, 3)
    verts = np.vstack([p123, -p123.sum(axis=0)])
    rms = math.sqrt(float(np.mean(np.sum(verts * verts, axis=1))))
    return Tetrahedron(verts / rms)


@dataclass(frozen=True, eq=False)
class MidpointFrame:
    """Midpoints of the three edges from the first vertex.

    For a centred tetrahedron these determine the vertices linearly:
    p1 = n2+n3+n4, p2 = n2-n3-n4, p3 = -n2+n3-n4, p4 = -n2-n3+n4.
    """

    n2: np.ndarray
    n3: np.ndarray
    n4: np.ndarray

    def vertices(self) -> np.ndarray:
        return np.vstack([
            self.n2 + self.n3 + self.n4,
            self.n2 - self.n3 - self.n4,
            -self.n2 + self.n3 - self.n4,
            -self.n2 - self.n3 + self.n4,
        ])


def midpoint_frame(tetra: Tetrahedron) -> MidpointFrame:
    """Edge midpoints (p1+pi)/2, i = 2, 3, 4, in the centred combination form."""
    p1, p2, p3, p4 = tetra.vertices
    return MidpointFrame(
        n2=(p1 + p2 - p3 - p4) / 4.0,
        n3=(p1 - p2 + p3 - p4) / 4.0,
        n4=(p1 - p2 - p3 + p4) / 4.0,
    )


def verify_fourcycle_relations(
    tetra: Tetrahedron, q: UnitQuaternion, tol: float = DEFAULT_TOLERANCES.geom_abs
) -> bool:
    """Check the midpoint identities of four-cycle ambiguous tetrahedra.

    A member of the four-cycle null space satisfies, up to vertical shifts,
    phi(n2) = -n4, phi(n3) = -n3 and phi(n4) = n2.  The check compares the
    first two coordinates of each identity against tol.
    """
    r = quat_to_matrix(q)
    f = midpoint_frame(tetra)
    residual = max(
        float(np.max(np.abs((r @ f.n2 + f.n4)[:2]))),
        float(np.max(np.abs((r @ f.n3 + f.n3)[:2]))),
        float(np.max(np.abs((r @ f.n4 - f.n2)[:2]))),
    )
    return residual <= tol


def fourcycle_lambda(tetra: Tetrahedron, q: UnitQuaternion) -> tuple[float, float]:
    """Measured and predicted offset of the projected n3 midpoint.

    For a genuine four-cycle member with an oblique axis and angle in
    (0, pi), the image of n3 under the parallel projection along +z onto
    the plane through the origin orthogonal to the axis has norm
    ||proj(c3)|| * tan(alpha/2), where c3 is the orthogonal projection of
    n3 onto the axis line.  Returns (measured, predicted).
    """
    axis_class, alpha = classify_rotation(q)
    if axis_class is not AxisClass.OBLIQUE:
        raise ValueError("the offset scalar is defined for oblique axes only")
    if not alpha < HALF_TURN - DEFAULT_TOLERANCES.angle_abs:
        raise ValueError("the offset scalar requires an angle strictly below a half turn")
    w = quat_to_axis_angle(q).axis
    n3 = midpoint_frame(tetra).n3
    c3 = float(n3 @ w) * w
    e3 = np.array([0.0, 0.0, 1.0])

    def proj(x: np.ndarray) -> np.ndarray:
        return x - (float(x @ w) / w[2]) * e3

    measured = float(np.linalg.norm(proj(n3)))
    predicted = float(np.linalg.norm(proj(c3))) * math.tan(alpha / 2.0)
    return measured, predicted


@dataclass(frozen=True)
class CaseCell:
    """One sampling cell of the dimension table.

    `angle` is either an exact special angle in radians or a (lo, hi)
    sampling range of generic angles.
    """

    perm_class: PermClass
    axis_class: AxisClass
    angle: float | tuple[float, float]

    @property
    def expected_dim(self) -> int:
        """The table value for the cell; a range cell is generic."""
        if isinstance(self.angle, tuple):
            return _table_dimension(self.perm_class, self.axis_class, None)
        return predicted_dimension(self.perm_class, self.axis_class, self.angle)

    def label(self) -> str:
        if isinstance(self.angle, tuple):
            angle = f"angle in ({self.angle[0]:.2f}, {self.angle[1]:.2f})"
        else:
            angle = case_label(self.axis_class, self.angle).split("-", 1)[-1]
        return f"{self.perm_class.value} / {self.axis_class.value} / {angle}"


_GENERIC = (0.1, 3.0)        # clear of 0 and of the half-turn
_FULL_RANGE = (0.1, math.pi)  # classes whose horizontal cell does not split

CLASSIFICATION_CELLS: tuple[CaseCell, ...] = (
    CaseCell(PermClass.IDENTITY, AxisClass.OBLIQUE, _GENERIC),
    CaseCell(PermClass.IDENTITY, AxisClass.HORIZONTAL, _FULL_RANGE),
    CaseCell(PermClass.TWO_CYCLE, AxisClass.OBLIQUE, _GENERIC),
    CaseCell(PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, _GENERIC),
    CaseCell(PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, HALF_TURN),
    CaseCell(PermClass.TWO_CYCLE, AxisClass.VERTICAL, HALF_TURN),
    CaseCell(PermClass.TWO_CYCLE, AxisClass.OBLIQUE, HALF_TURN),
    CaseCell(PermClass.DOUBLE_TWO_CYCLE, AxisClass.OBLIQUE, _GENERIC),
    CaseCell(PermClass.DOUBLE_TWO_CYCLE, AxisClass.HORIZONTAL, _GENERIC),
    CaseCell(PermClass.DOUBLE_TWO_CYCLE, AxisClass.HORIZONTAL, HALF_TURN),
    CaseCell(PermClass.DOUBLE_TWO_CYCLE, AxisClass.VERTICAL, HALF_TURN),
    CaseCell(PermClass.DOUBLE_TWO_CYCLE, AxisClass.OBLIQUE, HALF_TURN),
    CaseCell(PermClass.THREE_CYCLE, AxisClass.OBLIQUE, _GENERIC),
    CaseCell(PermClass.THREE_CYCLE, AxisClass.HORIZONTAL, _FULL_RANGE),
    CaseCell(PermClass.THREE_CYCLE, AxisClass.VERTICAL, THIRD_TURN),
    CaseCell(PermClass.FOUR_CYCLE, AxisClass.OBLIQUE, _GENERIC),
    CaseCell(PermClass.FOUR_CYCLE, AxisClass.VERTICAL, QUARTER_TURN),
    CaseCell(PermClass.FOUR_CYCLE, AxisClass.VERTICAL, HALF_TURN),
    CaseCell(PermClass.FOUR_CYCLE, AxisClass.OBLIQUE, HALF_TURN),
    CaseCell(PermClass.FOUR_CYCLE, AxisClass.HORIZONTAL, _GENERIC),
    CaseCell(PermClass.FOUR_CYCLE, AxisClass.HORIZONTAL, HALF_TURN),
)


def sample_cell_rotation(cell: CaseCell, rng: np.random.Generator) -> UnitQuaternion:
    """Random rotation inside a case cell, well clear of the cell boundaries."""
    if cell.axis_class is AxisClass.VERTICAL:
        axis = np.array([0.0, 0.0, 1.0])
    elif cell.axis_class is AxisClass.HORIZONTAL:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        axis = np.array([math.cos(theta), math.sin(theta), 0.0])
    else:
        z = rng.uniform(0.15, 0.85) * rng.choice([-1.0, 1.0])
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rad = math.sqrt(1.0 - z * z)
        axis = np.array([rad * math.cos(theta), rad * math.sin(theta), z])
    if isinstance(cell.angle, tuple):
        alpha = rng.uniform(*cell.angle)
    else:
        alpha = cell.angle
    return quat_from_axis_angle(axis, alpha)
