"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from tetrot import Tetrahedron, UnitQuaternion, quat_to_matrix


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
