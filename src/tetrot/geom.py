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
    "coplanarity_det",
    "project",
    "quad_match",
]


# Largest magnitude of an input value: squared norms of such coordinates stay finite.
MAX_MAGNITUDE = 1e150


def is_number(value) -> bool:
    """The one rule for an input coordinate: an int or a float, numpy's included, that is not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


_PLAIN_NUMBERS = frozenset((float, int))


def _only_numbers(values) -> bool:
    """Whether every leaf of values, nested in lists, tuples and arrays, is_number.

    An int or float array is taken whole, without a walk; an object array
    is walked through its entries, and an array of any other kind (bool,
    string, complex) fails.  A leaf of type exactly float or int, the common
    one, passes without the isinstance tests.
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
        elif not is_number(value):
            return False
    return True


def as_finite_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Coerce to a float array of the given shape, rejecting NaN/inf and magnitudes above MAX_MAGNITUDE.

    Every entry must pass is_number: numpy alone would read "1" and True as numbers.
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
    """Shared numeric thresholds.

    rank_rel  -- relative singular-value cutoff for rank decisions, below 1
    geom_abs  -- absolute tolerance when matching projected points
    angle_abs -- tolerance for axis components and special angles
    dedupe    -- Frobenius distance below which rotations are merged
    """

    rank_rel: float = 1e-9
    geom_abs: float = 1e-8
    angle_abs: float = 1e-9
    dedupe: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("rank_rel", "geom_abs", "angle_abs", "dedupe"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
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
        images = tuple(int(i) for i in given)
        # int() alone would truncate 1.9 to 1 and read "1" as 1
        if images != given or sorted(images) != [1, 2, 3, 4]:
            raise ValueError(f"images must be a permutation of 1..4, got {given}")
        object.__setattr__(self, "images", images)

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

    Construction recentres the input, so off-centre vertex sets are
    normalized rather than rejected.  The vertex order is preserved and the
    array is read-only.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = as_finite_array(self.vertices, (4, 3), "vertices")
        v = v - v.sum(axis=0) / 4.0  # the bits of v.mean(axis=0)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def full_dimensional(self, rank_rel: float = DEFAULT_TOLERANCES.rank_rel) -> bool:
        """True when the vertices span R^3.

        Tested on the 3x3 matrix of the first three vertices; with the
        centroid at the origin this is equivalent to affine independence of
        all four.
        """
        return _rank(np.linalg.svd(self.vertices[:3], compute_uv=False), rank_rel) == 3


@dataclass(frozen=True, eq=False)
class ProjectionQuad:
    """Four points in the plane, an observed projection of a tetrahedron.

    The points are stored in order (labels matter to the labeled solver)
    but compare as a multiset when matched against another quad without a
    fixed correspondence.  Coincident points are allowed.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        p = as_finite_array(self.points, (4, 2), "points")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    def multiset_match(self, other: "ProjectionQuad", tol: float = DEFAULT_TOLERANCES.geom_abs) -> bool:
        """True when the two quads agree as multisets within tol."""
        return any(quad_match(self, other, sigma, tol) for sigma in ALL_PERMUTATIONS)


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


def quad_match(
    p: ProjectionQuad,
    q: ProjectionQuad,
    sigma: Permutation4,
    tol: float = DEFAULT_TOLERANCES.geom_abs,
) -> bool:
    """True iff ||p_i - q_sigma(i)|| <= tol for every i."""
    reordered = q.points[list(sigma.zero_based())]
    dist = np.linalg.norm(p.points - reordered, axis=1)
    return bool(np.max(dist) <= tol)


def coplanarity_det(vertices) -> float:
    """Determinant testing affine dependence of four points.

    Rows are (1,1,1,1) followed by the x, y and z coordinates; the value is
    six times the signed tetrahedron volume and vanishes exactly when the
    points are coplanar.
    """
    v = as_finite_array(vertices, (4, 3), "vertices")
    m = np.vstack([np.ones(4), v.T])
    return float(np.linalg.det(m))
