"""Bundled worked instances used by the reproduce command and the tests.

Three instances cover the interesting regimes: a four-cycle ambiguity where
a non-trivial rotation reproduces the tetrahedron's own shadow, a norm
certificate where pruning leaves only the identity relabeling, and a
coplanar tetrahedron with exactly two compatible rotations.  The first and
the last are shadows of their own tetrahedra, taken by project; the norm
certificate's vertices stay off-centre, so its quad is built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import Permutation4, ProjectionQuad, Tetrahedron, _own_tetrahedron, project
from .rotation import UnitQuaternion, quat_from_axis_angle

__all__ = [
    "FourCycleInstance",
    "NormPruneInstance",
    "PlanarInstance",
    "four_cycle_instance",
    "norm_prune_instance",
    "planar_instance",
]

_SQ6 = math.sqrt(6.0)
_SQ38 = math.sqrt(0.375)


@dataclass(frozen=True, eq=False)
class FourCycleInstance:
    """Ambiguous instance: the rotated tetrahedron shadows onto its own
    projection with the vertex labels advanced cyclically."""

    tetrahedron: Tetrahedron
    rotation: UnitQuaternion
    matrix: np.ndarray
    rotated_vertices: np.ndarray
    projection: ProjectionQuad
    sigma: Permutation4


def four_cycle_instance() -> FourCycleInstance:
    axis = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    rotation = quat_from_axis_angle(axis, math.pi / 3.0)
    matrix = np.array([
        [0.75, -_SQ38, 0.25],
        [_SQ38, 0.5, -_SQ38],
        [0.25, _SQ38, 0.75],
    ])
    vertices = np.array([
        [-2.0, -3.0 + _SQ6, 16.0 - 3.0 * _SQ6],
        [1.0, 3.0 - 4.0 * _SQ6, -19.0 + 3.0 * _SQ6],
        [2.0, -3.0 + 3.0 * _SQ6, 8.0 - 3.0 * _SQ6],
        [-1.0, 3.0, -5.0 + 3.0 * _SQ6],
    ])
    rotated = np.array([
        [1.0, 3.0 - 4.0 * _SQ6, 13.0 - 3.0 * _SQ6],
        [2.0, -3.0 + 3.0 * _SQ6, -20.0 + 3.0 * _SQ6],
        [-1.0, 3.0, 11.0 - 3.0 * _SQ6],
        [-2.0, -3.0 + _SQ6, -4.0 + 3.0 * _SQ6],
    ])
    tetrahedron = _own_tetrahedron(vertices.ravel().tolist())
    return FourCycleInstance(
        tetrahedron=tetrahedron,
        rotation=rotation,
        matrix=matrix,
        rotated_vertices=rotated,
        projection=project(tetrahedron),
        sigma=Permutation4((2, 3, 4, 1)),
    )


@dataclass(frozen=True, eq=False)
class NormPruneInstance:
    """Instance whose vertex and projection norms force the identity
    relabeling.  The vertices are deliberately kept off-centre: the norm
    test applies to the coordinates as given."""

    vertices: np.ndarray
    projection: ProjectionQuad


def norm_prune_instance() -> NormPruneInstance:
    vertices = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [2.0, 1.0, 2.0],
        [4.0, -2.0, -2.0],
    ])
    return NormPruneInstance(
        vertices=vertices,
        projection=ProjectionQuad(vertices[:, :2]),
    )


@dataclass(frozen=True, eq=False)
class PlanarInstance:
    """Coplanar tetrahedron whose shadow admits exactly two rotations under
    the relabeling that swaps the second and third vertex."""

    tetrahedron: Tetrahedron
    projection: ProjectionQuad
    swap_sigma: Permutation4
    matrices: np.ndarray


def planar_instance() -> PlanarInstance:
    vertices = np.array([
        [-1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -2.0],
        [1.0, 0.0, 1.0],
    ])
    matrices = np.array([
        np.eye(3),
        np.diag([1.0, -1.0, -1.0]),
    ])
    tetrahedron = _own_tetrahedron(vertices.ravel().tolist())
    return PlanarInstance(
        tetrahedron=tetrahedron,
        projection=project(tetrahedron),
        swap_sigma=Permutation4((1, 3, 2, 4)),
        matrices=matrices,
    )
