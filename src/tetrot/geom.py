"""Core geometric types: tetrahedra, projection quads, permutations.

A tetrahedron here is an ordered set of four points in R^3, possibly
coplanar.  Constructors recentre the vertices so the centroid sits at the
origin, which is the normal form assumed everywhere else in the package.
All values are immutable and all functions are pure, so they are safe to
share across threads.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALL_PERMUTATIONS",
    "CANONICAL_PERMUTATION",
    "DEFAULT_TOLERANCES",
    "IDENTITY_PERMUTATION",
    "PermClass",
    "Permutation4",
    "ProjectionQuad",
    "Tetrahedron",
    "Tolerances",
    "project",
]


# Largest magnitude of an input value: squared norms of such coordinates stay finite.
MAX_MAGNITUDE = 1e150


_PLAIN_NUMBERS = frozenset((float, int))


def _only_numbers(values) -> bool:
    """Whether every leaf of values, nested in lists, tuples and arrays, is a number.

    This is the one rule for an input coordinate: an int or a float, numpy's
    included, that is not a bool.  An int or float array is taken whole,
    without a walk; an object array is walked through its entries, and an
    array of any other kind (bool, string, complex) fails.  A leaf of type
    exactly float or int, the common one, passes without the isinstance tests.
    """
    pending = [values]
    for value in pending:  # the list grows as nested entries are found
        if type(value) in _PLAIN_NUMBERS:
            continue
        if isinstance(value, np.ndarray):
            if value.dtype.kind in "fiu":
                continue
            if value.dtype.kind != "O":
                return False
            value = value.tolist()
        if isinstance(value, (list, tuple)):
            pending.extend(value)
        elif not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
            return False
    return True


def _is_number(value) -> bool:
    """Whether value is one number by the rule of _only_numbers: not a list,
    a tuple or an array of more than zero dimensions holding numbers."""
    return type(value) in _PLAIN_NUMBERS or (
        not isinstance(value, (list, tuple)) and _only_numbers(value) and np.ndim(value) == 0)


def _check_number(value, name: str) -> float:
    """value as a float, refused unless it is one number by _is_number and
    within the float range: an int too large for a float is refused too, as
    as_finite_array refuses it."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number, got an int beyond the float range") from None


def as_finite_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Coerce to a float array of the given shape, rejecting NaN/inf and magnitudes above MAX_MAGNITUDE.

    Every entry must be a number by the rule of _only_numbers: numpy alone would read "1"
    and True as numbers.
    """
    try:
        if not _only_numbers(values):
            raise TypeError(name)
        arr = np.array(values, dtype=float)
    except (ValueError, TypeError):  # ragged nesting, or an entry that is not a number
        raise ValueError(f"{name} must be numbers in shape {shape}, got ragged nesting or a non-number") from None
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must contain only finite values up to {MAX_MAGNITUDE:g} in magnitude") from None
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not (np.abs(arr) <= MAX_MAGNITUDE).all():  # false for NaN and inf as well
        raise ValueError(f"{name} must contain only finite values up to {MAX_MAGNITUDE:g} in magnitude")
    return arr


def _rank(s: np.ndarray, rel_tol: float) -> int:
    """Count of singular values s (descending) above rel_tol times the largest:
    the one rank rule, behind every singular-value rank decision of the package.
    Counted on floats, with the comparisons of s > rel_tol * s[0]."""
    values = s.tolist()
    if not values:
        return 0
    cut = rel_tol * values[0]
    return sum(x > cut for x in values)


@dataclass(frozen=True)
class Tolerances:
    """Shared numeric thresholds, one field per --tol-* flag of the CLI.

    rank_rel  -- relative singular-value cutoff for rank decisions, below 1 (--tol-rank)
    geom_abs  -- absolute tolerance when matching projected points (--tol-geom)
    angle_abs -- tolerance for axis components and special angles (--tol-angle)

    Every public function that reads a threshold takes a Tolerances as tol
    and reads the field of its flag, so each value is checked once, here:
    a number, finite and strictly positive.  Tetrahedron.full_dimensional
    takes rank_rel as a float.  The distance at which two rotations count
    as one is no field: it is solver.DEDUPE_DISTANCE.
    """

    rank_rel: float = 1e-9
    geom_abs: float = 1e-8
    angle_abs: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rel", "geom_abs", "angle_abs"):
            value = getattr(self, name)
            number = _check_number(value, name)
            if not (math.isfinite(number) and number > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if not self.rank_rel < 1.0:  # a cutoff at or above 1 drops every singular value
            raise ValueError(f"rank_rel must be below 1, got {self.rank_rel!r}")


DEFAULT_TOLERANCES = Tolerances()


class PermClass(enum.Enum):
    """The five essentially different relabelings of four vertices."""

    IDENTITY = "identity"
    TWO_CYCLE = "two-cycle"
    DOUBLE_TWO_CYCLE = "double-two-cycle"
    THREE_CYCLE = "three-cycle"
    FOUR_CYCLE = "four-cycle"


@dataclass(frozen=True)
class Permutation4:
    """A bijection of {1,2,3,4}, stored as the tuple of images (1-based)."""

    images: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        given = tuple(self.images)
        # int() would read True and "1" as 1, which the one number rule refuses, and 1.9 as 1;
        # sorted compares the values, so 1.9, an infinity or a NaN is no image of 1..4, and
        # each image is one number first, since sorted cannot compare (1,) with 2
        if not (all(map(_is_number, given)) and sorted(given) == [1, 2, 3, 4]):
            raise ValueError(f"images must be a permutation of 1..4, got {given}")
        object.__setattr__(self, "images", tuple(int(i) for i in given))

    def image(self, i: int) -> int:
        """Image of i under the permutation, 1-based."""
        return self.images[i - 1]

    def zero_based(self) -> tuple[int, int, int, int]:
        return tuple(i - 1 for i in self.images)

    def perm_class(self) -> PermClass:
        """Cycle type of the relabeling, read off its fixed points.

        Four fixed points make the identity, two a two-cycle and one a
        three-cycle.  With none, sigma(sigma(1)) = 1 makes a double
        two-cycle, and otherwise sigma is a four-cycle.
        """
        fixed = sum(self.image(i) == i for i in (1, 2, 3, 4))
        if fixed == 0:
            return PermClass.DOUBLE_TWO_CYCLE if self.image(self.image(1)) == 1 else PermClass.FOUR_CYCLE
        return {4: PermClass.IDENTITY, 2: PermClass.TWO_CYCLE, 1: PermClass.THREE_CYCLE}[fixed]


IDENTITY_PERMUTATION = Permutation4((1, 2, 3, 4))

ALL_PERMUTATIONS: tuple[Permutation4, ...] = tuple(
    Permutation4(images) for images in itertools.permutations((1, 2, 3, 4))
)

CANONICAL_PERMUTATION: dict[PermClass, Permutation4] = {
    PermClass.IDENTITY: IDENTITY_PERMUTATION,
    PermClass.TWO_CYCLE: Permutation4((2, 1, 3, 4)),
    PermClass.DOUBLE_TWO_CYCLE: Permutation4((2, 1, 4, 3)),
    PermClass.THREE_CYCLE: Permutation4((2, 3, 1, 4)),
    PermClass.FOUR_CYCLE: Permutation4((2, 3, 4, 1)),
}


@dataclass(frozen=True, eq=False)
class Tetrahedron:
    """Ordered set of four points in R^3 with centroid at the origin.

    Construction checks the input with as_finite_array and recentres it,
    so off-centre vertex sets are normalized rather than rejected.  The
    vertex order is preserved and the array is read-only.  Tetrahedra the
    library computes from its own numbers are built by _own_tetrahedron,
    which recentres them the same way without the check.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = as_finite_array(self.vertices, (4, 3), "vertices")
        object.__setattr__(self, "vertices", _recentred(v.ravel().tolist()))

    def full_dimensional(self, rank_rel: float = DEFAULT_TOLERANCES.rank_rel) -> bool:
        """True when the vertices span R^3.

        Tested on the 3x3 matrix of the first three vertices; with the
        centroid at the origin this is equivalent to affine independence of
        all four.
        """
        return _rank(np.linalg.svd(self.vertices[:3], compute_uv=False), rank_rel) == 3


def _recentred(coords) -> np.ndarray:
    """Twelve float coordinates, row by row, less their centroid, as a read-only (4, 3) array.

    The one recentre rule.  A column's centroid is (0.0 + v0 + v1 + v2 + v3) / 4.0,
    added left to right: the bits of v.sum(axis=0) / 4.0 and of v.mean(axis=0),
    whose sum starts from +0.0, so that a column of -0.0 sums to +0.0.
    """
    x0, y0, z0, x1, y1, z1, x2, y2, z2, x3, y3, z3 = coords
    cx = (0.0 + x0 + x1 + x2 + x3) / 4.0
    cy = (0.0 + y0 + y1 + y2 + y3) / 4.0
    cz = (0.0 + z0 + z1 + z2 + z3) / 4.0
    flat = np.array([
        x0 - cx, y0 - cy, z0 - cz, x1 - cx, y1 - cy, z1 - cz,
        x2 - cx, y2 - cy, z2 - cz, x3 - cx, y3 - cy, z3 - cz,
    ])
    flat.flags.writeable = False
    return flat.reshape(4, 3)


# The class of the library's own tetrahedra, bound once: bench/spans.py rebinds
# the name Tetrahedron in this module, configspace and cli to a function that
# times its calls.
_TETRA_CLASS = Tetrahedron


def _own_tetrahedron(coords) -> Tetrahedron:
    """The Tetrahedron of twelve float coordinates, row by row, that the library computed itself.

    Outside numbers are checked where they enter, by Tetrahedron(...); these
    are not.  The caller vouches that every coordinate is a float of magnitude
    at most MAX_MAGNITUDE, and they are recentred as the constructor recentres.
    """
    tetra = object.__new__(_TETRA_CLASS)
    object.__setattr__(tetra, "vertices", _recentred(coords))
    return tetra


@dataclass(frozen=True, eq=False)
class ProjectionQuad:
    """Four points in the plane, an observed projection of a tetrahedron.

    The points are stored in order: the labeled solver matches point i to
    vertex i, the unlabeled solver tries the relabelings of the points.
    Coincident points are allowed.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        p = as_finite_array(self.points, (4, 2), "points")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)


# The class of project's quads, bound once: bench/spans.py rebinds the name
# ProjectionQuad in this module to a function that times its calls.
_QUAD_CLASS = ProjectionQuad


def project(tetra: Tetrahedron) -> ProjectionQuad:
    """Drop the z-coordinate of every vertex, keeping the labels.

    The vertices were checked when the tetrahedron was built, and its
    recentre can move a coordinate up to 1.5 MAX_MAGNITUDE, so the quad
    takes a read-only copy of them without a second check.
    """
    points = np.array(tetra.vertices[:, :2])
    points.flags.writeable = False
    quad = object.__new__(_QUAD_CLASS)
    object.__setattr__(quad, "points", points)
    return quad

