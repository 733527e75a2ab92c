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


def as_finite_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Coerce to a float array of the given shape, rejecting NaN/inf."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


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
        images = tuple(int(i) for i in self.images)
        if sorted(images) != [1, 2, 3, 4]:
            raise ValueError(f"images must be a permutation of 1..4, got {self.images}")
        object.__setattr__(self, "images", images)

    def image(self, i: int) -> int:
        """Image of i under the permutation, 1-based."""
        return self.images[i - 1]

    def zero_based(self) -> tuple[int, int, int, int]:
        return tuple(i - 1 for i in self.images)

    def perm_class(self) -> PermClass:
        lengths = sorted(map(len, self._cycles()))
        return {
            (1, 1, 1, 1): PermClass.IDENTITY,
            (1, 1, 2): PermClass.TWO_CYCLE,
            (2, 2): PermClass.DOUBLE_TWO_CYCLE,
            (1, 3): PermClass.THREE_CYCLE,
            (4,): PermClass.FOUR_CYCLE,
        }[tuple(lengths)]

    def _cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        cycles = []
        for start in (1, 2, 3, 4):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = self.image(start)
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.image(j)
            cycles.append(tuple(cycle))
        return cycles


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
        v = v - v.mean(axis=0)
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    def full_dimensional(self, rank_rel: float = DEFAULT_TOLERANCES.rank_rel) -> bool:
        """True when the vertices span R^3.

        Tested on the 3x3 matrix of the first three vertices; with the
        centroid at the origin this is equivalent to affine independence of
        all four.
        """
        s = np.linalg.svd(self.vertices[:3], compute_uv=False)
        return bool(s[0] > 0 and s[2] > rank_rel * s[0])


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


def project(tetra: Tetrahedron) -> ProjectionQuad:
    """Drop the z-coordinate of every vertex, keeping the labels."""
    return ProjectionQuad(tetra.vertices[:, :2])


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
