"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from tetrot import Tetrahedron, UnitQuaternion, quat_from_axis_angle, quat_to_matrix
from tetrot.solver import _misses


def random_unit_quaternion(rng: np.random.Generator) -> UnitQuaternion:
    vec = rng.standard_normal(4)
    norm = np.linalg.norm(vec)
    while norm < 1e-6:
        vec = rng.standard_normal(4)
        norm = np.linalg.norm(vec)
    return UnitQuaternion.normalized(*vec)


def random_full_dim_tetrahedron(rng: np.random.Generator, min_ratio: float = 1e-6) -> Tetrahedron:
    while True:
        tetra = Tetrahedron(rng.standard_normal((4, 3)))
        s = np.linalg.svd(tetra.vertices[:3], compute_uv=False)
        if s[2] > min_ratio * s[0]:
            return tetra


def near_edge_on(rng: np.random.Generator, tilt_exponent: float) -> Tetrahedron:
    """A tetrahedron whose first three vertices span a plane about 10**tilt_exponent rad off vertical."""
    base = np.column_stack([rng.standard_normal((4, 2)), [0, 0, 0, rng.uniform(0.5, 2)]])
    theta = math.pi / 2 - 10 ** tilt_exponent
    c, s = math.cos(theta), math.sin(theta)
    spin = quat_to_matrix(UnitQuaternion.normalized(1.0, 0.0, 0.0, rng.standard_normal()))
    return Tetrahedron(base @ np.array([[1, 0, 0], [0, c, -s], [0, s, c]]).T @ spin.T)


def tilted_near_plane(rng: np.random.Generator) -> tuple[Tetrahedron, np.ndarray]:
    """A tetrahedron with z scaled by 10**U(-12, -3) and size 10**U(0, 6), and the rotation
    matrix that turns it about the vertical and then tilts it by 10**U(-9, -5) about x."""
    vertices = rng.standard_normal((4, 3)) * [1.0, 1.0, 10.0 ** rng.uniform(-12, -3)] * 10.0 ** rng.uniform(0, 6)
    turn = quat_to_matrix(quat_from_axis_angle([0.0, 0.0, 1.0], rng.uniform(0.0, 2.0 * math.pi)))
    tilt = quat_to_matrix(quat_from_axis_angle([1.0, 0.0, 0.0], 10.0 ** rng.uniform(-9, -5)))
    return Tetrahedron(vertices), tilt @ turn


def unit_normal(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Unit normal of the plane through three points, up to sign."""
    normal = np.cross(q - p, r - p)
    return normal / np.linalg.norm(normal)


def shadow_miss(vertices, points) -> float:
    """Largest distance between the shadows of four vertices and four points, by the gate's rule _misses."""
    return _misses([np.asarray(vertices, dtype=float).tolist()], [np.asarray(points, dtype=float).tolist()])[0]
