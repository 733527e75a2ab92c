"""The scalar kernels of the dimension sweep against their numpy definitions.

classify_rotation, build_config_matrix, the sampler's draw and the
Tetrahedron recentre work on Python floats or with fewer numpy calls than
the expressions they replace.  Each reference below writes that expression
out; every result must match it bit for bit (``tobytes`` for arrays,
``float.hex`` for floats), signed zeros included.
"""

import math

import numpy as np
import pytest

from tetrot import (
    CLASSIFICATION_CELLS,
    AxisClass,
    PermClass,
    Tetrahedron,
    UnitQuaternion,
    build_config_matrix,
    classify_rotation,
    null_space_basis,
    numeric_rank,
    quat_to_axis_angle,
    quat_to_matrix,
    sample_cell_rotation,
    sample_tetrahedron,
)
from tetrot.configspace import _COUPLING
from tetrot.geom import DEFAULT_TOLERANCES, as_finite_array


def reference_axis_angle(q: UnitQuaternion) -> tuple[np.ndarray, float]:
    vec = np.array([q.b, q.c, q.d])
    s = float(np.linalg.norm(vec))
    angle = 2.0 * math.atan2(s, q.a)
    if s == 0.0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return vec / s, angle


def reference_classify(q: UnitQuaternion, angle_abs: float = DEFAULT_TOLERANCES.angle_abs):
    axis, angle = reference_axis_angle(q)
    if angle <= angle_abs:
        return AxisClass.NO_AXIS, 0.0
    w1, w2, w3 = axis
    if abs(w3) <= angle_abs:
        return AxisClass.HORIZONTAL, angle
    if abs(w1) <= angle_abs and abs(w2) <= angle_abs:
        return AxisClass.VERTICAL, angle
    return AxisClass.OBLIQUE, angle


def reference_config_matrix(q: UnitQuaternion, perm_class: PermClass) -> np.ndarray:
    m = _COUPLING[perm_class].copy()
    a = quat_to_matrix(q)[:2]
    for i in range(3):
        m[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] += a
    return m


def reference_recentre(vertices) -> np.ndarray:
    v = as_finite_array(vertices, (4, 3), "vertices")
    return v - v.mean(axis=0)


def reference_sample(q: UnitQuaternion, perm_class: PermClass, seed: int) -> np.ndarray:
    basis = null_space_basis(reference_config_matrix(q, perm_class))
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.shape[0])
    norm = np.linalg.norm(coeffs)
    while norm == 0.0:
        coeffs = rng.standard_normal(basis.shape[0])
        norm = np.linalg.norm(coeffs)
    vec = (coeffs / norm) @ basis
    p123 = vec.reshape(3, 3)
    verts = np.vstack([p123, -p123.sum(axis=0)])
    rms = math.sqrt(float(np.mean(np.sum(verts * verts, axis=1))))
    return reference_recentre(verts / rms)


def axis_quaternion(axis, angle: float) -> UnitQuaternion:
    """Built from exact components, so a zero axis component stays exactly zero."""
    s = math.sin(0.5 * angle)
    return UnitQuaternion.normalized(math.cos(0.5 * angle), axis[0] * s, axis[1] * s, axis[2] * s)


def rotations() -> list[tuple[str, UnitQuaternion, PermClass]]:
    """Every cell 50 times, 2,000 quaternions with component scales 1e-10 to 1,
    exactly vertical and exactly horizontal axes, and the identity."""
    rng = np.random.default_rng(97)
    out = []
    for index, cell in enumerate(CLASSIFICATION_CELLS):
        out.extend((f"cell {index}", sample_cell_rotation(cell, rng), cell.perm_class) for _ in range(50))
    classes = list(PermClass)
    for trial in range(2000):
        comps = rng.standard_normal(4) * 10.0 ** rng.uniform(-10.0, 0.0, 4)
        out.append((f"scaled {trial}", UnitQuaternion.normalized(*comps), classes[trial % 5]))
    for trial in range(100):
        angle = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append((f"vertical {trial}", axis_quaternion((0.0, 0.0, 1.0), angle), classes[trial % 5]))
        horizontal = (math.cos(theta), math.sin(theta), 0.0)
        out.append((f"horizontal {trial}", axis_quaternion(horizontal, angle), classes[trial % 5]))
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
        for angle in (math.pi / 2, 2 * math.pi / 3, math.pi):
            out.extend((f"axis {axis} {angle}", axis_quaternion(axis, angle), c) for c in classes)
    out.extend(("identity", UnitQuaternion(1.0, 0.0, 0.0, 0.0), c) for c in classes)
    return out


ROTATIONS = rotations()


def test_the_inputs_reach_every_axis_class():
    seen = {reference_classify(q)[0] for _, q, _ in ROTATIONS}
    assert seen == set(AxisClass)


def test_classify_rotation_matches_its_definition():
    for name, q, _ in ROTATIONS:
        axis_class, angle = classify_rotation(q)
        expected_class, expected_angle = reference_classify(q)
        assert axis_class is expected_class, name
        assert float(angle).hex() == float(expected_angle).hex(), name


def test_quat_to_axis_angle_matches_its_definition():
    for name, q, _ in ROTATIONS:
        aa = quat_to_axis_angle(q)
        axis, angle = reference_axis_angle(q)
        assert aa.axis.tobytes() == axis.tobytes(), name
        assert float(aa.angle).hex() == float(angle).hex(), name


def test_build_config_matrix_and_its_rank_match_their_definition():
    for name, q, perm_class in ROTATIONS:
        m = build_config_matrix(q, perm_class)
        expected = reference_config_matrix(q, perm_class)
        assert m.tobytes() == expected.tobytes(), name  # signed zeros included
        assert m.flags.c_contiguous and m.flags.writeable
        assert numeric_rank(m) == numeric_rank(expected), name
        assert null_space_basis(m).tobytes() == null_space_basis(expected).tobytes(), name


def test_sample_tetrahedron_matches_its_definition():
    for trial, (name, q, perm_class) in enumerate(ROTATIONS):
        if reference_classify(q)[0] is AxisClass.NO_AXIS:
            continue
        got = sample_tetrahedron(q, perm_class, trial).vertices
        assert got.tobytes() == reference_sample(q, perm_class, trial).tobytes(), name


@pytest.mark.parametrize("scale", [1e-150, 1e-10, 1.0, 1e10, 1e150])
def test_tetrahedron_recentres_with_the_bits_of_the_mean(scale):
    rng = np.random.default_rng(101)
    for _ in range(500):
        vertices = rng.standard_normal((4, 3)) * scale * 10.0 ** rng.uniform(-3.0, 0.0, (4, 3))
        vertices = np.clip(vertices + rng.standard_normal(3) * scale, -1e150, 1e150)
        assert Tetrahedron(vertices).vertices.tobytes() == reference_recentre(vertices).tobytes()
