"""Quaternion parametrization of rotations about the origin.

Rotation matrices are plain (3, 3) float arrays; validity is checked where
matrices enter the API.  Quaternions are kept in a canonical form that fixes
the q ~ -q ambiguity, and rotation angles are restricted to [0, pi] (a turn
by -alpha about w equals a turn by alpha about -w).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geom import DEFAULT_TOLERANCES, Tolerances, _check_number, as_finite_array

__all__ = [
    "AxisAngle",
    "AxisClass",
    "UnitQuaternion",
    "apply",
    "classify_rotation",
    "matrix_to_quat",
    "quat_from_axis_angle",
    "quat_to_axis_angle",
    "quat_to_matrix",
]

_UNIT_NORM_ATOL = 1e-12
_ROTATION_ATOL = 1e-9
_AXIS_NORM_ATOL = 1e-9
# From this norm on the sum of squares is at least 2**-968, whose last bit is at
# least 2**-1020, so a square below the smallest normal float, rounded to a
# multiple of 2**-1074, is off by at most 2**-55 of that bit.  A smaller norm is
# taken after _lifted.
_TINY_NORM = 2.0**-484
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class AxisClass(enum.Enum):
    """Position of the rotation axis relative to the projection plane."""

    HORIZONTAL = "horizontal"  # axis lies in the xy-plane
    VERTICAL = "vertical"      # axis is the z-axis
    OBLIQUE = "oblique"
    NO_AXIS = "no-axis"        # identity rotation only


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion a + b i + c j + d k in canonical form.

    Canonical means a >= 0, and if a == 0 the first nonzero of (b, c, d) is
    positive.  Construction checks the components where outside numbers
    enter: each must be a number by the rule of geom._check_number, finite,
    and of norm 1.  It canonicalizes the sign but rejects non-unit input;
    use :meth:`normalized` to build from arbitrary components.  Components
    that _unit returned are unit and finite by construction, and
    :meth:`_from_unit` takes them without a second check.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        a, b, c, d = _numbers(self.a, self.b, self.c, self.d)
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            raise ValueError("quaternion components must be finite")
        norm2 = a * a + b * b + c * c + d * d
        if abs(norm2 - 1.0) > _UNIT_NORM_ATOL:
            raise ValueError(f"quaternion norm^2 is {norm2!r}, expected 1")
        _set_canonical(self, a, b, c, d)

    @classmethod
    def normalized(cls, a: float, b: float, c: float, d: float) -> "UnitQuaternion":
        """The quaternion of the components divided by their norm; each must be a number."""
        return cls._from_unit(*_unit(*_numbers(a, b, c, d)))

    @classmethod
    def _from_unit(cls, a: float, b: float, c: float, d: float) -> "UnitQuaternion":
        """The quaternion of float components that _unit returned, under the sign rule, checked no further."""
        q = object.__new__(cls)
        _set_canonical(q, a, b, c, d)
        return q

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])


def _numbers(a, b, c, d) -> tuple[float, float, float, float]:
    """The four components as floats, each refused unless it is a number by the rule of _check_number."""
    return _check_number(a, "a"), _check_number(b, "b"), _check_number(c, "c"), _check_number(d, "d")


def _set_canonical(q: UnitQuaternion, a: float, b: float, c: float, d: float) -> None:
    """Set the fields of q to (a, b, c, d) under the sign rule, the one place it is written.

    The first nonzero component decides the sign; -0.0 counts as zero.  The
    frozen dataclass refuses setattr, so the four fields go into its
    instance dict in one update.
    """
    if a < 0.0 or a == 0.0 and (b < 0.0 or b == 0.0 and (c < 0.0 or c == 0.0 and d < 0.0)):
        a, b, c, d = -a, -b, -c, -d
    vars(q).update(a=a, b=b, c=c, d=d)


@dataclass(frozen=True, eq=False)
class AxisAngle:
    """Rotation axis (unit vector) and angle in [0, pi]."""

    axis: np.ndarray
    angle: float


def _lifted(*values: float) -> list[float]:
    """values times the power of two at or above the largest magnitude.

    A power of two keeps every bit, so the direction is the same, and the
    largest magnitude lands in [0.5, 1), so the sum of squares of four
    values lies in [0.25, 4).  A zero, an infinity or a NaN stays one.
    """
    shift = -math.frexp(max(abs(v) for v in values))[1]
    return [math.ldexp(v, shift) for v in values]


def _unit(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """Components of a + b i + c j + d k divided by its norm; a zero or non-finite one is refused.

    A norm below _TINY_NORM is taken after _lifted, so a tiny nonzero
    quaternion has the bits of the same one at unit scale.
    """
    norm = math.sqrt(a * a + b * b + c * c + d * d)
    if not (math.isfinite(norm) and norm >= _TINY_NORM):
        a, b, c, d = _lifted(a, b, c, d)
        norm = math.sqrt(a * a + b * b + c * c + d * d)
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError("cannot normalize a zero or non-finite quaternion")
    return a / norm, b / norm, c / norm, d / norm


def _unit_axis(axis: np.ndarray) -> np.ndarray:
    """A finite axis divided by its np.linalg.norm; a zero one is refused.

    A norm below _TINY_NORM is taken after _lifted, as in _unit.
    """
    norm = float(np.linalg.norm(axis))
    if norm < _TINY_NORM:
        axis = np.array(_lifted(*axis.tolist()))
        norm = float(np.linalg.norm(axis))
        if norm == 0.0:
            raise ValueError("rotation axis must be nonzero")
    return axis / norm


def _rotation_rows(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """The nine entries of the rotation matrix of a + b i + c j + d k, row by row, scaled by 1/|q|^2.

    The one copy of the formula.  The squares and the doubled components are
    formed once, and each product of a doubled and a plain component once:
    2 * b * c is (2 * b) * c, and aa + bb - cc - dd adds left to right, so
    every entry keeps the rounding of its textbook form.  Every entry is a
    product of two components, so q and -q give the same bits.
    """
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    a2, b2, c2 = 2 * a, 2 * b, 2 * c
    bc, ad, bd, ac, cd, ab = b2 * c, a2 * d, b2 * d, a2 * c, c2 * d, a2 * b
    n2 = aa + bb + cc + dd
    return (
        (aa + bb - cc - dd) / n2, (bc - ad) / n2, (bd + ac) / n2,
        (bc + ad) / n2, (aa - bb + cc - dd) / n2, (cd - ab) / n2,
        (bd - ac) / n2, (cd + ab) / n2, (aa - bb - cc + dd) / n2,
    )


def quat_from_axis_angle(axis, angle: float) -> UnitQuaternion:
    """Quaternion of the rotation by `angle` radians about unit vector `axis`: both checked, then _axis_turn."""
    w = as_finite_array(axis, (3,), "axis")
    norm = float(np.linalg.norm(w))
    if abs(norm - 1.0) > _AXIS_NORM_ATOL:
        raise ValueError(f"axis must be a unit vector, got norm {norm!r}")
    angle = _check_number(angle, "angle")
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    return _axis_turn(*w.tolist(), angle)


def _axis_turn(x: float, y: float, z: float, angle: float) -> UnitQuaternion:
    """Quaternion of the turn by a finite `angle` about the unit axis (x, y, z), which the caller checked."""
    half = 0.5 * angle
    s = math.sin(half)
    return UnitQuaternion._from_unit(*_unit(math.cos(half), x * s, y * s, z * s))


def quat_to_matrix(q: UnitQuaternion) -> np.ndarray:
    """The 3x3 rotation matrix of q.  Same matrix for q and -q."""
    return np.array(_rotation_rows(q.a, q.b, q.c, q.d)).reshape(3, 3)


def _angle_axis(q: UnitQuaternion) -> tuple[float, float, float, float]:
    """Angle and axis of q as floats, (0, 0, 0, 1) for the identity: |v| of v = (b, c, d)
    is sqrt(v.dot(v)), the bits of np.linalg.norm(v), and the axis is v / |v| by component."""
    vec = np.array([q.b, q.c, q.d])
    s = math.sqrt(vec.dot(vec))
    if s == 0.0:
        return 0.0, 0.0, 0.0, 1.0
    return 2.0 * math.atan2(s, q.a), q.b / s, q.c / s, q.d / s


def quat_to_axis_angle(q: UnitQuaternion) -> AxisAngle:
    """Axis and angle of q; the identity reports axis (0,0,1) and angle 0."""
    angle, *axis = _angle_axis(q)
    return AxisAngle(np.array(axis), angle)


def matrix_to_quat(r) -> UnitQuaternion:
    """Canonical quaternion of a rotation matrix.

    Raises ValueError unless r.T @ r = I and det r = 1 within _ROTATION_ATOL = 1e-9.
    """
    m = as_finite_array(r, (3, 3), "rotation matrix")
    if not np.abs(m.T @ m - _EYE3).max() <= _ROTATION_ATOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(m) - 1.0) > _ROTATION_ATOL:
        raise ValueError("matrix determinant is not 1 within tolerance")
    return UnitQuaternion._from_unit(*_quat_from_rows(m.tolist()))


def _quat_from_rows(rows: list[list[float]]) -> tuple[float, float, float, float]:
    """Unit quaternion components of an orthogonal matrix given as nested lists.

    Shepperd's extraction: the pivot is the largest of the trace and the
    diagonal entries, which keeps the square root away from zero.  The sign
    is not made canonical: UnitQuaternion._from_unit(*components) does
    that, and _rotation_rows gives the same bits for either sign.  The
    components come from _unit, so they are finite and unit and need no
    further check.  Callers check orthogonality and the determinant
    first, or refuse a ValueError.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    trace = m00 + m11 + m22
    if trace > 0:
        s = 2.0 * math.sqrt(trace + 1.0)
        a = 0.25 * s
        b = (m21 - m12) / s
        c = (m02 - m20) / s
        d = (m10 - m01) / s
    elif m00 > m11 and m00 > m22:
        s = 2.0 * math.sqrt(1.0 + m00 - m11 - m22)
        a = (m21 - m12) / s
        b = 0.25 * s
        c = (m01 + m10) / s
        d = (m02 + m20) / s
    elif m11 > m22:
        s = 2.0 * math.sqrt(1.0 + m11 - m00 - m22)
        a = (m02 - m20) / s
        b = (m01 + m10) / s
        c = 0.25 * s
        d = (m12 + m21) / s
    else:
        s = 2.0 * math.sqrt(1.0 + m22 - m00 - m11)
        a = (m10 - m01) / s
        b = (m02 + m20) / s
        c = (m12 + m21) / s
        d = 0.25 * s
    return _unit(a, b, c, d)


def classify_rotation(q: UnitQuaternion, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[AxisClass, float]:
    """Axis class and rotation angle of q, at angle_abs = tol.angle_abs.

    An angle not above angle_abs is classified NO_AXIS with angle 0, as the
    identity.  Horizontal means |w3| <= angle_abs, vertical means |w1|,
    |w2| <= angle_abs.  Reads the floats behind quat_to_axis_angle, so it
    builds no AxisAngle.
    """
    angle_abs = tol.angle_abs
    angle, w1, w2, w3 = _angle_axis(q)
    if not angle > angle_abs:
        return AxisClass.NO_AXIS, 0.0
    if abs(w3) <= angle_abs:
        return AxisClass.HORIZONTAL, angle
    if abs(w1) <= angle_abs and abs(w2) <= angle_abs:
        return AxisClass.VERTICAL, angle
    return AxisClass.OBLIQUE, angle


def apply(q: UnitQuaternion, p) -> np.ndarray:
    """Rotate a point (3,) or stack of points (n, 3) by q."""
    r = quat_to_matrix(q)
    return np.asarray(p, dtype=float) @ r.T
