"""The scalar kernels against their numpy definitions.

classify_rotation, build_config_matrix, the sampler's draw, the recentre
of both Tetrahedron constructors and the solver gate's residual work on
Python floats or with fewer numpy calls than the expressions they
replace.  The rotation formula is one flat tuple with its shared products
formed once, and the relabeling fit's completions are written out on
named floats.  Each reference below writes the replaced expression out: a
numpy expression, the textbook entries as nested lists, or a
comprehension.  Every result must match it bit for bit (``tobytes`` for
arrays, ``float.hex`` for floats), signed zeros included.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetrot import (
    CLASSIFICATION_CELLS,
    AxisClass,
    DegenerateTetrahedronError,
    PermClass,
    ProjectionQuad,
    Tetrahedron,
    UnitQuaternion,
    build_config_matrix,
    classify_rotation,
    null_space_basis,
    numeric_rank,
    project,
    quat_to_axis_angle,
    quat_to_matrix,
    sample_cell_rotation,
    sample_tetrahedron,
    unlabeled_solve,
)
from tetrot import solver
from tetrot.configspace import _COUPLING, _draw
from tetrot.geom import DEFAULT_TOLERANCES, _own_tetrahedron, _rank, as_finite_array
from tetrot.rotation import _rotation_rows
from tetrot.solver import _misses, _starts

from conftest import tilted_near_plane


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


def cell_draws() -> list[tuple[str, UnitQuaternion, PermClass, int]]:
    """Ten rotations of every cell, five seeds each."""
    rng = np.random.default_rng(24)
    return [
        (f"cell {index} rotation {trial} seed {seed}", q, cell.perm_class, seed)
        for index, cell in enumerate(CLASSIFICATION_CELLS)
        for trial, q in enumerate(sample_cell_rotation(cell, rng) for _ in range(10))
        for seed in range(5)
    ]


def test_draw_matches_its_definition_on_every_cell():
    with_zero = 0
    for name, q, perm_class, seed in cell_draws():
        basis = null_space_basis(build_config_matrix(q, perm_class))
        got = _draw(basis, np.random.default_rng(seed)).vertices
        assert got.tobytes() == reference_sample(q, perm_class, seed).tobytes(), name
        with_zero += 0.0 in got.ravel().tolist()
    assert with_zero > 0  # exact-zero coordinates, which carry a sign


def test_sampled_vertices_are_finite_and_bounded_at_unit_rms():
    # why _own_tetrahedron may skip as_finite_array: with unit coefficients on an
    # orthonormal basis, no vertex of a draw is longer than sqrt(3) at unit RMS
    for name, q, perm_class, seed in cell_draws():
        vertices = sample_tetrahedron(q, perm_class, seed).vertices
        norms = [math.sqrt(x * x + y * y + z * z) for x, y, z in vertices.tolist()]
        assert np.isfinite(vertices).all(), name
        assert max(norms) <= 2.0, name
        assert math.sqrt(sum(n * n for n in norms) / 4.0) == pytest.approx(1.0, abs=1e-15), name


@pytest.mark.parametrize("scale", [1e-150, 1e-10, 1.0, 1e10, 1e150])
def test_tetrahedron_recentres_with_the_bits_of_the_mean(scale):
    # Tetrahedron(...) and _own_tetrahedron, the constructor for the library's own numbers
    rng = np.random.default_rng(101)
    for trial in range(500):
        vertices = rng.standard_normal((4, 3)) * scale * 10.0 ** rng.uniform(-3.0, 0.0, (4, 3))
        vertices = np.clip(vertices + rng.standard_normal(3) * scale, -1e150, 1e150)
        if trial % 5 == 0:  # signed zeros, and in every other such trial a column of -0.0
            zero = rng.random((4, 3)) < 0.5
            vertices[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
            if trial % 10 == 0:
                vertices[:, trial % 3] = -0.0
        expected = reference_recentre(vertices).tobytes()
        assert Tetrahedron(vertices).vertices.tobytes() == expected
        own = _own_tetrahedron(vertices.ravel().tolist())
        assert type(own) is Tetrahedron and not own.vertices.flags.writeable
        assert own.vertices.tobytes() == expected


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
# zero vertices under the identity, and a free shadow whose first point is missed by (dx, dy) =
# (-0x1.0c5300342457cp-1, 0x1.6a5368858d8d0p-4): math.hypot rounds that miss to
# 0x1.101ea57b640c4p-1, sqrt(dx*dx + dy*dy) to 0x1.101ea57b640c3p-1
@example(
    [0.0] * 12,
    [((1.0, 0.0, 0.0, 0.0), [float.fromhex("0x1.0c5300342457cp-1"), float.fromhex("-0x1.6a5368858d8d0p-4")] + [0.0] * 6,
      "free")],
)
def test_gate_residual_matches_its_definition(vertex_coords, starts):
    """The gate's residual on floats, per start: the largest of sqrt(dx*dx + dy*dy) over the
    four vertices, which must be the bits of the numpy expression it replaces.  A free shadow
    is drawn on its own; a tie shadow misses every rotated vertex by the same offset in turn,
    up to sign and order; an exact one is the rotated vertices' own shadow, where every miss is zero."""
    vertices = np.array(vertex_coords).reshape(4, 3)
    matrices = np.array([_rotation_rows(*q) for q, _, _ in starts]).reshape(-1, 3, 3)
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


def reference_rotation_rows(a, b, c, d) -> list[list]:
    """The textbook rotation matrix of a + b i + c j + d k, scaled by 1/|q|^2, as nested lists."""
    n2 = a * a + b * b + c * c + d * d
    return [
        [(a * a + b * b - c * c - d * d) / n2, (2 * b * c - 2 * a * d) / n2, (2 * b * d + 2 * a * c) / n2],
        [(2 * b * c + 2 * a * d) / n2, (a * a - b * b + c * c - d * d) / n2, (2 * c * d - 2 * a * b) / n2],
        [(2 * b * d - 2 * a * c) / n2, (2 * c * d + 2 * a * b) / n2, (a * a - b * b - c * c + d * d) / n2],
    ]


def test_rotation_rows_match_the_textbook_entries():
    """Random and unit quaternions, every cell rotation above, components near 1e-160 (squares
    below the smallest normal float) and 1e150, and every pattern of signed zeros."""
    rng = np.random.default_rng(61)
    inputs = rng.standard_normal((1000, 4)).tolist()
    inputs += [q.as_array().tolist() for _, q, _ in ROTATIONS]
    for scale in (1e-160, 1e150):
        inputs += (scale * rng.standard_normal((300, 4))).tolist()
    inputs += [list(v) for v in itertools.product((0.0, -0.0, 1.0, -0.5, 3.0), repeat=4) if any(v)]
    for v in inputs:
        want = [x.hex() for row in reference_rotation_rows(*v) for x in row]
        assert [x.hex() for x in _rotation_rows(*v)] == want, v


def test_rotation_rows_are_exact_on_fractions():
    rng = np.random.default_rng(62)
    for v in rng.integers(-9, 10, (300, 4)).tolist():
        if not any(v):
            continue
        q = [Fraction(x) for x in v]
        entries = _rotation_rows(*q)
        assert list(entries) == [x for row in reference_rotation_rows(*q) for x in row]
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        for i, j in itertools.product(range(3), repeat=2):
            assert sum(x * y for x, y in zip(rows[i], rows[j])) == (i == j)
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
        assert r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * (r10 * r21 - r11 * r20) == 1


def reference_starts(fitted: dict, normal: list[float], bound: float, rejected: bool = False) -> tuple[list[int], list]:
    """solver._starts with each completion a comprehension over the rows and the normal: the
    starts of the rows fitted under each relabeling row of fitted, and the row of each start.

    With rejected, every branch started from its rows, and each is completed
    when c is not zero."""
    owners, starts = [], []
    for row, (r1, r2) in fitted.items():
        m00 = 1.0 - (r1[0] * r1[0] + r1[1] * r1[1] + r1[2] * r1[2])
        m11 = 1.0 - (r2[0] * r2[0] + r2[1] * r2[1] + r2[2] * r2[2])
        m01 = -(r1[0] * r2[0] + r1[1] * r2[1] + r1[2] * r2[2])
        mean, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
        rad = math.sqrt(half * half + m01 * m01)
        if abs(mean - rad) > bound:
            continue
        complete = mean + rad > bound
        if rejected:
            if rad == 0.0 or mean + rad <= 0.0:
                continue
            complete = True
        pairs = [[r1, r2]]
        if complete:
            e0, e1 = (rad + half, m01) if half >= 0.0 else (m01, rad - half)
            scale = math.sqrt((mean + rad) / (e0 * e0 + e1 * e1))
            pairs = [[[a + sign * e * n for a, n in zip(r, normal)] for r, e in ((r1, e0), (r2, e1))]
                     for sign in (scale, -scale)]
        owners += [row] * len(pairs)
        starts += pairs
    return owners, starts


def test_starts_match_their_comprehension_form(monkeypatch):
    """On the arguments of every _starts call that unlabeled_solve makes on null-space samples
    of every cell, seen through their exact shadow and through one moved by 0.9 geom_abs at
    every point, and on exact shadows of tilted near-planar vertex sets.  Planar and
    full-rank vertex sets, dropped branches, branches started from
    their rows and completed ones, and completions of rejected branches must all occur."""
    rng = np.random.default_rng(63)
    instances = []
    for cell in CLASSIFICATION_CELLS:
        for _ in range(10):
            tetra = sample_tetrahedron(sample_cell_rotation(cell, rng), cell.perm_class, rng)
            theta = rng.uniform(0.0, 2.0 * math.pi, 4)
            moved = 0.9 * DEFAULT_TOLERANCES.geom_abs * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            instances += [(tetra, project(tetra)), (tetra, ProjectionQuad(project(tetra).points + moved))]
    for tetra, truth in [tilted_near_plane(rng) for _ in range(200)]:
        instances.append((tetra, ProjectionQuad((tetra.vertices @ truth.T)[:, :2])))
    calls = []
    monkeypatch.setattr(solver, "_starts", lambda *args: calls.append(args) or _starts(*args))
    seen = set()
    for tetra, quad in instances:
        try:
            unlabeled_solve(tetra, quad)
        except DegenerateTetrahedronError:
            continue
        if calls:
            rank = _rank(np.linalg.svd(tetra.vertices[:3], compute_uv=False), DEFAULT_TOLERANCES.rank_rel)
            seen.add("planar" if rank == 2 else "full rank")
        while calls:
            args = calls.pop()
            fitted = args[0]
            owners, starts = _starts(*args)
            want_owners, want = reference_starts(*args)
            assert owners == want_owners
            assert [x.hex() for pair in starts for row in pair for x in row] == [
                x.hex() for pair in want for row in pair for x in row]
            seen.update(("completed" if owners.count(row) == 2 else "rows" if row in owners else "dropped")
                        for row in fitted)
            if args[3:] and starts:
                seen.add("rejected, completed")
    assert seen == {"planar", "full rank", "completed", "rows", "dropped", "rejected, completed"}
