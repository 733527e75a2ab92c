"""The scalar kernels against their numpy definitions.

classify_rotation, build_config_matrix, the sampler's draw, the
Tetrahedron recentre and the solver gate's residual work on Python floats
or with fewer numpy calls than the expressions they replace.  Each
reference below writes that expression out; every result must match it
bit for bit (``tobytes`` for arrays, ``float.hex`` for floats), signed
zeros included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tetrot.rotation import _rotation_rows
from tetrot.solver import _misses


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


def reference_misses(images: np.ndarray, shadows: np.ndarray) -> np.ndarray:
    diff = images[..., :2] - shadows
    return np.sqrt(np.add.reduce(diff * diff, axis=-1)).max(axis=-1)


# a coordinate of magnitude 1e-150 to 1e150, or a signed zero
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
        st.integers(min_value=-150, max_value=149),
    ),
)
quaternion = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (-0.0, 1.0, -0.0, 0.0)]),
    st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4).filter(lambda q: sum(x * x for x in q) > 1e-6),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coordinate, min_size=12, max_size=12),
    st.lists(
        st.tuples(quaternion, st.lists(coordinate, min_size=8, max_size=8), st.sampled_from(["free", "tie", "exact"])),
        min_size=1,
        max_size=4,
    ),
)
def test_gate_residual_matches_its_definition(vertex_coords, starts):
    """The gate's residual on floats, per start: the largest of sqrt(dx*dx + dy*dy) over the
    four vertices, which must be the bits of the numpy expression it replaces.  A free shadow
    is drawn on its own; a tie shadow misses every rotated vertex by the same offset in turn,
    up to sign and order; an exact one is the rotated vertices' own shadow, where every miss is zero."""
    vertices = np.array(vertex_coords).reshape(4, 3)
    matrices = np.array([_rotation_rows(*q) for q, _, _ in starts])
    images = vertices @ matrices.mT
    shadows = []
    for image, (_, free, kind) in zip(images, starts):
        if kind == "free":
            shadows.append(np.array(free).reshape(4, 2))
            continue
        a, b = (free[0], free[1]) if kind == "tie" else (0.0, 0.0)
        shadows.append(image[:, :2] + np.array([[a, b], [b, a], [-a, b], [b, -a]]))
    shadows = np.array(shadows)
    got = _misses(images.tolist(), shadows.tolist())
    want = reference_misses(images, shadows).tolist()
    assert [float(x).hex() for x in got] == [x.hex() for x in want]
