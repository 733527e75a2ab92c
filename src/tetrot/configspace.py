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

from .geom import (
    CANONICAL_PERMUTATION,
    DEFAULT_TOLERANCES,
    PermClass,
    Permutation4,
    Tetrahedron,
    Tolerances,
    _own_tetrahedron,
    _rank,
)
from .rotation import (
    AxisClass,
    UnitQuaternion,
    _rotation_rows,
    classify_rotation,
    quat_from_axis_angle,
)

__all__ = [
    "CLASSIFICATION_CELLS",
    "CaseCell",
    "build_config_matrix",
    "case_label",
    "config_dimension",
    "null_space_basis",
    "numeric_rank",
    "predicted_dimension",
    "sample_cell_rotation",
    "sample_tetrahedron",
]

HALF_TURN = math.pi
QUARTER_TURN = math.pi / 2
THIRD_TURN = 2 * math.pi / 3

_SPECIAL_TURNS = (("half-turn", HALF_TURN), ("quarter-turn", QUARTER_TURN), ("third-turn", THIRD_TURN))

# Predicted null-space dimension by (class, axis class, special turn name).
# None covers every other angle; a cell with no entry is generic, dimension 3.
_DIMENSION: dict[tuple[PermClass, AxisClass, str | None], int] = {
    (PermClass.IDENTITY, AxisClass.HORIZONTAL, None): 6,
    (PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, None): 5,
    (PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, "half-turn"): 6,
    (PermClass.TWO_CYCLE, AxisClass.VERTICAL, "half-turn"): 5,
    (PermClass.TWO_CYCLE, AxisClass.OBLIQUE, "half-turn"): 4,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.HORIZONTAL, None): 4,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.HORIZONTAL, "half-turn"): 6,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.VERTICAL, "half-turn"): 7,
    (PermClass.DOUBLE_TWO_CYCLE, AxisClass.OBLIQUE, "half-turn"): 5,
    (PermClass.THREE_CYCLE, AxisClass.HORIZONTAL, None): 4,
    (PermClass.THREE_CYCLE, AxisClass.VERTICAL, "third-turn"): 5,
    (PermClass.FOUR_CYCLE, AxisClass.VERTICAL, "half-turn"): 5,
    (PermClass.FOUR_CYCLE, AxisClass.VERTICAL, "quarter-turn"): 5,
    # a half-turn about any non-vertical axis leaves rank 5
    (PermClass.FOUR_CYCLE, AxisClass.OBLIQUE, "half-turn"): 4,
    (PermClass.FOUR_CYCLE, AxisClass.HORIZONTAL, "half-turn"): 4,
}


def _table_dimension(perm_class: PermClass, axis_class: AxisClass, special: str | None) -> int:
    generic = _DIMENSION.get((perm_class, axis_class, None), 3)
    return _DIMENSION.get((perm_class, axis_class, special), generic)


def _special_turn(alpha: float, angle_abs: float) -> str | None:
    """The one window test: the first of half-, quarter- and third-turn within angle_abs of alpha, or None."""
    for name, value in _SPECIAL_TURNS:
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
# Flat indices of the three 2x3 diagonal blocks, block by block and row by row
_DIAGONAL = np.array([9 * (2 * i + r) + 3 * i + c for i in range(3) for r in range(2) for c in range(3)])
_DIAGONAL.flags.writeable = False


def build_config_matrix(q: UnitQuaternion, perm_class: PermClass) -> np.ndarray:
    """6x9 coefficient matrix of the projection-match system for the class.

    With sigma the canonical permutation of the class and A the top two
    rows of the rotation matrix of q, the system is A p_i = proj(p_sigma(i))
    for i = 1, 2, 3, with p4 = -(p1 + p2 + p3) by the centroid condition.
    Variables are ordered p1_x, p1_y, p1_z, p2_x, ..., p3_z; rows 2i-1 and
    2i carry the x and y equation of block i.  One flat-index add puts A on
    the diagonal blocks, with the bits of adding quat_to_matrix(q)[:2] to each.
    """
    m = _COUPLING[perm_class].copy()
    m.reshape(-1)[_DIAGONAL] += np.array(_rotation_rows(q.a, q.b, q.c, q.d)[:6] * 3)
    return m


def numeric_rank(m, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Count of singular values above tol.rank_rel times the largest one."""
    return _rank(np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False), tol.rank_rel)


def null_space_basis(m, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal basis of the null space at tol.rank_rel, one vector per row."""
    _, s, vh = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=True)
    return vh[_rank(s, tol.rank_rel):]


def config_dimension(q: UnitQuaternion, perm_class: PermClass, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Null-space dimension of the projection-match system, 9 - rank at tol.rank_rel."""
    return 9 - numeric_rank(_system(q, perm_class, tol), tol)


def _refuse_identity(axis_class: AxisClass) -> None:
    """The rank analysis's one refusal: a rotation classified NO_AXIS lies in no cell of the table."""
    if axis_class is AxisClass.NO_AXIS:
        raise ValueError("the identity rotation is excluded from dimension analysis")


def _system(q: UnitQuaternion, perm_class: PermClass, tol: Tolerances) -> np.ndarray:
    """The class's 6x9 system for q, after _refuse_identity of q's class at tol.angle_abs; reads no special angle."""
    _refuse_identity(classify_rotation(q, tol)[0])
    return build_config_matrix(q, perm_class)


def predicted_dimension(
    perm_class: PermClass,
    axis_class: AxisClass,
    alpha: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> int:
    """Predicted null-space dimension for an axis class and angle.

    The table gives 3 in the generic case and a larger value in the special
    cells listed per class, each a window of tol.angle_abs about its turn.
    An angle not above tol.angle_abs is refused as the identity.
    """
    _refuse_identity(axis_class if alpha > tol.angle_abs else AxisClass.NO_AXIS)
    return _table_dimension(perm_class, axis_class, _special_turn(alpha, tol.angle_abs))


def case_label(axis_class: AxisClass, alpha: float, tol: Tolerances = DEFAULT_TOLERANCES) -> str:
    """Geometric label of a rotation's case cell at tol.angle_abs, e.g. 'vertical-half-turn'."""
    if axis_class is AxisClass.NO_AXIS:
        return "identity"
    turn = _special_turn(alpha, tol.angle_abs)
    return axis_class.value if turn is None else f"{axis_class.value}-{turn}"


def sample_tetrahedron(
    q: UnitQuaternion,
    perm_class: PermClass,
    seed,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Tetrahedron:
    """Draw a random member of the null space as a tetrahedron.

    Coefficients are drawn uniformly from the unit sphere of the null space
    and the result is scaled to unit RMS vertex norm, so invariant checks
    are scale free.  `seed` may be an int or a numpy Generator.  The
    identity is refused at tol.angle_abs and the null space taken at
    tol.rank_rel.  The projection of the rotated result matches the
    projection of the result itself under the canonical permutation of the
    class.  The vertices are the library's own numbers, finite and bounded
    by construction, so the result is not checked again (see _draw).
    """
    basis = null_space_basis(_system(q, perm_class, tol), tol)
    return _draw(basis, np.random.default_rng(seed))  # returns a Generator seed as it is


def _draw(basis: np.ndarray, rng: np.random.Generator) -> Tetrahedron:
    """One tetrahedron from a uniform direction in the span of the basis rows, at unit RMS vertex norm.

    Bit for bit the np.linalg.norm, np.vstack and np.mean definition.  The
    draw, the coefficients' norm sqrt(x.dot(x)) (as np.linalg.norm takes it)
    and the product with the basis stay numpy; the fourth vertex, the squared
    norms, their mean and the scaling run on floats, added left to right.
    The result is built by _own_tetrahedron, without a second check: the
    basis rows are orthonormal and the coefficients a unit vector, so the
    first three vertices have unit norm together, the RMS is at least 1/2, and
    every vertex is finite with norm at most sqrt(3) once scaled.
    """
    coeffs = rng.standard_normal(basis.shape[0])
    norm = math.sqrt(coeffs.dot(coeffs))
    while norm == 0.0:
        coeffs = rng.standard_normal(basis.shape[0])
        norm = math.sqrt(coeffs.dot(coeffs))
    x0, y0, z0, x1, y1, z1, x2, y2, z2 = ((coeffs / norm) @ basis).tolist()
    # np.sum starts from +0.0, as _recentred's centroid does
    x3, y3, z3 = -(0.0 + x0 + x1 + x2), -(0.0 + y0 + y1 + y2), -(0.0 + z0 + z1 + z2)
    # left to right, as np.mean(np.sum(verts * verts, axis=1)) adds; sum() would compensate
    rms = math.sqrt((
        (x0 * x0 + y0 * y0 + z0 * z0) + (x1 * x1 + y1 * y1 + z1 * z1)
        + (x2 * x2 + y2 * y2 + z2 * z2) + (x3 * x3 + y3 * y3 + z3 * z3)
    ) / 4.0)
    return _own_tetrahedron([x / rms for x in (x0, y0, z0, x1, y1, z1, x2, y2, z2, x3, y3, z3)])


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
            angle = _special_turn(self.angle, DEFAULT_TOLERANCES.angle_abs) or f"angle {self.angle:.2f}"
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
