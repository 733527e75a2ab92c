import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrot import (
    AxisClass,
    UnitQuaternion,
    apply,
    classify_rotation,
    matrix_to_quat,
    quat_from_axis_angle,
    quat_to_axis_angle,
    quat_to_matrix,
)
from tetrot.rotation import _ROTATION_ATOL, _rotation_rows
from tetrot.instances import four_cycle_instance

from conftest import random_unit_quaternion

SQ38 = math.sqrt(0.375)
HALF_SQRT2 = 1.0 / (2.0 * math.sqrt(2.0))

OBLIQUE_MATRIX = np.array([
    [0.75, -SQ38, 0.25],
    [SQ38, 0.5, -SQ38],
    [0.25, SQ38, 0.75],
])
OBLIQUE_QUAT = UnitQuaternion(math.sqrt(3.0) / 2.0, HALF_SQRT2, 0.0, HALF_SQRT2)

quat_components = st.tuples(
    *(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False) for _ in range(4))
).filter(lambda v: sum(x * x for x in v) > 1e-6)


class TestUnitQuaternion:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            UnitQuaternion(1.0, 1.0, 0.0, 0.0)

    def test_components_are_numbers(self):
        # the rule of every input number: a bool, a string, None, a list or an int beyond the
        # float range is refused, where float() would read "1" and True as 1.0 and raise
        # OverflowError on 10**400; normalized takes outside numbers too
        for bad in ("1", True, np.True_, None, [1.0], 10**400):
            for position, name in enumerate("abcd"):
                comps = [1.0, 0.0, 0.0, 0.0]
                comps[position] = bad
                for build in (UnitQuaternion, UnitQuaternion.normalized):
                    with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
                        build(*comps)
        # numpy's floats and ints are numbers, and become floats
        for one in (np.float64(1.0), np.int64(1), np.float32(1.0), np.array(1.0), 1):
            for build in (UnitQuaternion, UnitQuaternion.normalized):
                q = build(one, 0, 0, 0)
                assert q == UnitQuaternion(1.0, 0.0, 0.0, 0.0)
                assert all(type(x) is float for x in (q.a, q.b, q.c, q.d))
        # float32 components are normalized as the floats they equal, not in float32
        assert UnitQuaternion.normalized(*np.float32([1, 2, 3, 4])) == UnitQuaternion.normalized(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(ValueError, match="^quaternion components must be finite$"):
            UnitQuaternion(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^quaternion norm\^2 is 4.0, expected 1$"):
            UnitQuaternion(2.0, 0.0, 0.0, 0.0)

    def test_canonical_sign_flips_negative_scalar(self):
        q = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
        assert (q.a, q.b, q.c, q.d) == (1.0, 0.0, 0.0, 0.0)

    def test_canonical_sign_at_zero_scalar(self):
        q = UnitQuaternion(0.0, -1.0, 0.0, 0.0)
        assert (q.a, q.b, q.c, q.d) == (0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "comps, canonical",
        [
            ((-0.0, 0, -1, 0), "0x0.0p+0 -0x0.0p+0 0x1.0000000000000p+0 -0x0.0p+0"),
            ((-1, -0.0, 0, 0), "0x1.0000000000000p+0 0x0.0p+0 -0x0.0p+0 -0x0.0p+0"),
            ((-0.0, -0.0, 0.0, 1.0), "-0x0.0p+0 -0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0"),
            ((0.0, 0.0, 0.0, -1.0), "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0 0x1.0000000000000p+0"),
            ((0.0, -0.0, -0.6, 0.8), "-0x0.0p+0 0x0.0p+0 0x1.3333333333333p-1 -0x1.999999999999ap-1"),
        ],
    )
    def test_canonical_bytes_with_signed_zeros(self, comps, canonical):
        # -0.0 counts as zero when the first nonzero component picks the sign,
        # and a flip negates the zeros too.
        q = UnitQuaternion(*comps)
        assert [float(x).hex() for x in q.as_array()] == canonical.split()
        assert all(type(x) is float for x in (q.a, q.b, q.c, q.d))

    @pytest.mark.parametrize("shift", [-1000, -700, -600, -516, -513, -511, -505, -490, -470, -300, 0, 200,
                                       400, 600, 1000])
    def test_normalized_keeps_its_bits_under_power_of_two_scaling(self, shift):
        # below a norm of 2**-484 some squares may lose bits to underflow, and from
        # shift 600 on they overflow; such a quaternion is normalized after scaling by
        # a power of two, which keeps every bit.  Up to shift -490 every draw is below
        # that norm; at -513 and -511 a cut at 2**-511 left some draws with subnormal
        # squares unscaled, and from -470 on every square is normal.
        rng = np.random.default_rng(23)
        for _ in range(200):
            v = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.01, 10.0, 4)
            v[rng.integers(4)] *= rng.integers(2)  # some have a zero component
            scaled = UnitQuaternion.normalized(*(math.ldexp(x, shift) for x in v))
            assert scaled.as_array().tobytes() == UnitQuaternion.normalized(*v).as_array().tobytes()

    def test_tiny_components_normalize(self):
        q = UnitQuaternion.normalized(1e-160, 2e-160, 0, 0)
        assert q == UnitQuaternion.normalized(1.0, 2.0, 0.0, 0.0)
        for comps in [(0.0, 0.0, 0.0, 0.0), (5e-324, math.inf, 0.0, 0.0), (math.nan, 1e-200, 0.0, 0.0)]:
            with pytest.raises(ValueError, match="cannot normalize"):
                UnitQuaternion.normalized(*comps)

    @settings(max_examples=100, deadline=None)
    @given(quat_components)
    def test_normalized_is_canonical_unit(self, comps):
        q = UnitQuaternion.normalized(*comps)
        arr = q.as_array()
        assert abs(np.dot(arr, arr) - 1.0) <= 1e-12
        nonzero = arr[np.abs(arr) > 0]
        assert nonzero.size == 0 or nonzero[0] > 0


class TestQuatFromAxisAngle:
    def test_half_turn_about_z(self):
        q = quat_from_axis_angle([0, 0, 1], math.pi)
        np.testing.assert_allclose(q.as_array(), [0, 0, 0, 1], atol=1e-15)

    def test_half_turn_about_x(self):
        q = quat_from_axis_angle([1, 0, 0], math.pi)
        np.testing.assert_allclose(q.as_array(), [0, 1, 0, 0], atol=1e-15)

    def test_oblique_sixth_turn(self):
        q = quat_from_axis_angle(np.array([1, 0, 1]) / math.sqrt(2), math.pi / 3)
        expected = [math.sqrt(3) / 2, HALF_SQRT2, 0.0, HALF_SQRT2]
        np.testing.assert_allclose(q.as_array(), expected, atol=1e-15)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            quat_from_axis_angle([1, 0, 1], math.pi)

    def test_angle_is_a_finite_number(self):
        for angle in (True, "1", None, [1.0], np.array([1.0]), 10**400):
            with pytest.raises(ValueError, match="^angle must be a number, got "):
                quat_from_axis_angle([0, 0, 1], angle)
        for angle in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^angle must be finite$"):
                quat_from_axis_angle([0, 0, 1], angle)
        # numpy's numbers turn as the same float does
        for angle in (np.float64(1.0), np.int64(1), np.array(1.0)):
            assert quat_from_axis_angle([0, 0, 1], angle) == quat_from_axis_angle([0, 0, 1], 1.0)


class TestQuatToMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(quat_to_matrix(UnitQuaternion(1, 0, 0, 0)), np.eye(3))

    def test_oblique_sixth_turn_matrix(self):
        np.testing.assert_allclose(quat_to_matrix(OBLIQUE_QUAT), OBLIQUE_MATRIX, atol=1e-15)

    def test_half_turn_about_x_matrix(self):
        got = quat_to_matrix(UnitQuaternion(0, 1, 0, 0))
        np.testing.assert_allclose(got, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_orthogonal_with_unit_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            r = quat_to_matrix(random_unit_quaternion(rng))
            assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_sign_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            np.testing.assert_allclose(
                _rotation_rows(*v), _rotation_rows(*(-v)), atol=1e-14
            )


class TestAxisAngleRoundTrips:
    def test_half_turn_about_z_axis_angle(self):
        aa = quat_to_axis_angle(UnitQuaternion(0, 0, 0, 1))
        np.testing.assert_allclose(aa.axis, [0, 0, 1], atol=1e-15)
        assert aa.angle == pytest.approx(math.pi)

    def test_identity_gets_fixed_axis(self):
        aa = quat_to_axis_angle(UnitQuaternion(1, 0, 0, 0))
        np.testing.assert_array_equal(aa.axis, [0, 0, 1])
        assert aa.angle == 0.0

    def test_matrix_to_quat_on_oblique_instance(self):
        q = matrix_to_quat(OBLIQUE_MATRIX)
        np.testing.assert_allclose(q.as_array(), OBLIQUE_QUAT.as_array(), atol=1e-12)

    def test_matrix_to_quat_identity(self):
        q = matrix_to_quat(np.eye(3))
        np.testing.assert_allclose(q.as_array(), [1, 0, 0, 0], atol=1e-15)

    def test_matrix_to_quat_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            matrix_to_quat(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            matrix_to_quat(2.0 * np.eye(3))

    @staticmethod
    def _shear(e):
        # m.T @ m differs from I by exactly e in two entries; det m is 1
        m = np.eye(3)
        m[0, 1] = e
        return m

    def test_matrix_to_quat_accepts_orthogonality_error_just_below_atol(self):
        assert _ROTATION_ATOL == 1e-9
        q = matrix_to_quat(self._shear(0.99e-9))
        assert q.a > 0.99

    def test_matrix_to_quat_rejects_orthogonality_error_just_above_atol(self):
        with pytest.raises(ValueError, match="orthogonal"):
            matrix_to_quat(self._shear(1.01e-9))

    @settings(max_examples=100, deadline=None)
    @given(quat_components)
    def test_matrix_round_trip(self, comps):
        # exactly on the canonical seam (scalar part below matrix precision)
        # the representative may flip sign; the rotation itself never does
        q = UnitQuaternion.normalized(*comps)
        back = matrix_to_quat(quat_to_matrix(q))
        diff = min(
            np.max(np.abs(back.as_array() - q.as_array())),
            np.max(np.abs(back.as_array() + q.as_array())),
        )
        assert diff <= 1e-10

    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            q = random_unit_quaternion(rng)
            aa = quat_to_axis_angle(q)
            if aa.angle == 0.0:
                continue
            back = quat_from_axis_angle(aa.axis, aa.angle)
            np.testing.assert_allclose(back.as_array(), q.as_array(), atol=1e-10)


class TestClassifyRotation:
    def test_vertical_half_turn(self):
        assert classify_rotation(UnitQuaternion(0, 0, 0, 1)) == (AxisClass.VERTICAL, pytest.approx(math.pi))

    def test_horizontal_half_turn(self):
        assert classify_rotation(UnitQuaternion(0, 1, 0, 0)) == (AxisClass.HORIZONTAL, pytest.approx(math.pi))

    def test_oblique_sixth_turn(self):
        axis_class, alpha = classify_rotation(OBLIQUE_QUAT)
        assert axis_class is AxisClass.OBLIQUE
        assert alpha == pytest.approx(math.pi / 3)

    def test_identity_has_no_axis(self):
        assert classify_rotation(UnitQuaternion(1, 0, 0, 0)) == (AxisClass.NO_AXIS, 0.0)

    def test_axis_component_within_tolerance_counts_as_horizontal(self):
        w3 = 1e-12
        axis = np.array([math.sqrt(1 - w3 * w3), 0.0, w3])
        assert classify_rotation(quat_from_axis_angle(axis, 1.0))[0] is AxisClass.HORIZONTAL
        tilted = np.array([math.sqrt(1 - 1e-6), 0.0, 1e-3])
        assert classify_rotation(quat_from_axis_angle(tilted, 1.0))[0] is AxisClass.OBLIQUE


class TestScalarComponentRelations:
    # a = cos(alpha/2) and d = w3 sin(alpha/2), so a = 0 marks a half turn
    # and d = 0 marks a horizontal axis (for non-identity rotations)

    def test_half_turn_iff_zero_scalar(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            q = random_unit_quaternion(rng)
            aa = quat_to_axis_angle(q)
            assert math.isclose(q.a, math.cos(aa.angle / 2), abs_tol=1e-12)
            if abs(q.a) <= 1e-12:
                assert aa.angle == pytest.approx(math.pi, abs=1e-10)
        for _ in range(50):
            vec = rng.standard_normal(3)
            vec /= np.linalg.norm(vec)
            q = quat_from_axis_angle(vec, math.pi)
            assert abs(q.a) <= 1e-12

    def test_horizontal_iff_zero_last_component(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = random_unit_quaternion(rng)
            aa = quat_to_axis_angle(q)
            assert math.isclose(q.d, aa.axis[2] * math.sin(aa.angle / 2), abs_tol=1e-12)
            if abs(q.d) <= 1e-13 and aa.angle > 1e-6:
                assert classify_rotation(q)[0] is AxisClass.HORIZONTAL
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi)
            q = quat_from_axis_angle([math.cos(theta), math.sin(theta), 0.0], rng.uniform(0.1, math.pi))
            assert abs(q.d) <= 1e-12


class TestApply:
    def test_four_cycle_first_vertex(self):
        inst = four_cycle_instance()
        got = apply(inst.rotation, inst.tetrahedron.vertices[0])
        np.testing.assert_allclose(got, inst.rotated_vertices[0], atol=1e-12)

    def test_identity_fixes_points(self):
        p = np.array([1.5, -2.0, 3.25])
        np.testing.assert_array_equal(apply(UnitQuaternion(1, 0, 0, 0), p), p)

    def test_half_turn_about_z(self):
        got = apply(UnitQuaternion(0, 0, 0, 1), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(got, [-1.0, -2.0, 3.0], atol=1e-15)

    def test_stacked_points(self):
        inst = four_cycle_instance()
        got = apply(inst.rotation, inst.tetrahedron.vertices)
        np.testing.assert_allclose(got, inst.rotated_vertices, atol=1e-12)
