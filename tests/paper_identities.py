"""The paper's identities, and a planarity measure, computed for the tests.

The library decides what a solve or a dimension needs; these functions
compute facts the paper states about its answers, which tier-1 confirms:
the discriminant of the identity-class system (criterion 05), the midpoint
relations and offset scalar of four-cycle ambiguous tetrahedra (criterion
10, TestMidpointFrame and TestFourCycleRelations), and a determinant that
measures how far four points are from a plane (criterion 07 and the
planarity tests), independent of Tetrahedron.full_dimensional's SVD rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tetrot import (
    DEFAULT_TOLERANCES,
    AxisClass,
    PermClass,
    Tetrahedron,
    UnitQuaternion,
    build_config_matrix,
    classify_rotation,
    quat_to_axis_angle,
    quat_to_matrix,
)
from tetrot.configspace import HALF_TURN


def coplanarity_det(vertices) -> float:
    """Determinant testing affine dependence of four points.

    Rows are (1,1,1,1) followed by the x, y and z coordinates; the value is
    six times the signed tetrahedron volume and vanishes exactly when the
    points are coplanar.
    """
    m = np.vstack([np.ones(4), np.asarray(vertices, dtype=float).T])
    return float(np.linalg.det(m))


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


def verify_fourcycle_relations(tetra: Tetrahedron, q: UnitQuaternion) -> bool:
    """Check the midpoint identities of four-cycle ambiguous tetrahedra.

    A member of the four-cycle null space satisfies, up to vertical shifts,
    phi(n2) = -n4, phi(n3) = -n3 and phi(n4) = n2.  The check compares the
    first two coordinates of each identity against DEFAULT_TOLERANCES.geom_abs,
    as fourcycle_lambda holds its angle window at DEFAULT_TOLERANCES.angle_abs.
    """
    r = quat_to_matrix(q)
    f = midpoint_frame(tetra)
    residual = max(
        float(np.max(np.abs((r @ f.n2 + f.n4)[:2]))),
        float(np.max(np.abs((r @ f.n3 + f.n3)[:2]))),
        float(np.max(np.abs((r @ f.n4 - f.n2)[:2]))),
    )
    return residual <= DEFAULT_TOLERANCES.geom_abs


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
