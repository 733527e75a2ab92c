import math
from fractions import Fraction

import numpy as np
import pytest

from tetrot import (
    CANONICAL_PERMUTATION,
    CLASSIFICATION_CELLS,
    AxisClass,
    CaseCell,
    PermClass,
    Tetrahedron,
    Tolerances,
    UnitQuaternion,
    apply,
    build_config_matrix,
    case_label,
    classify_rotation,
    config_dimension,
    null_space_basis,
    numeric_rank,
    predicted_dimension,
    project,
    quat_from_axis_angle,
    quat_to_axis_angle,
    quat_to_matrix,
    sample_cell_rotation,
    sample_tetrahedron,
)
from tetrot import configspace, geom
from tetrot.configspace import _COUPLING, _DIAGONAL, _special_turn, _table_dimension
from tetrot.geom import DEFAULT_TOLERANCES
from tetrot.instances import four_cycle_instance, planar_instance
from tetrot.rotation import _rotation_rows

from conftest import random_full_dim_tetrahedron, random_unit_quaternion, shadow_miss
from paper_identities import coplanarity_det, fourcycle_lambda, midpoint_frame, minor_sigma_id, verify_fourcycle_relations

SQ6 = math.sqrt(6.0)
SQ38 = math.sqrt(0.375)
Q_VERT_PI = UnitQuaternion(0, 0, 0, 1)
Q_HORIZ_PI = UnitQuaternion(0, 1, 0, 0)

# The one message of the rank analysis for a rotation within angle_abs of the identity
IDENTITY_REFUSAL = "^the identity rotation is excluded from dimension analysis$"
# (rotation, tolerances): the identity itself, and turns at or below angle_abs
IDENTITY_CASES = (
    (UnitQuaternion(1, 0, 0, 0), DEFAULT_TOLERANCES),
    (quat_from_axis_angle(np.array([0.0, 0.6, 0.8]), 1e-10), DEFAULT_TOLERANCES),
    (quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), 1e-3), Tolerances(angle_abs=1e-2)),
    (quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), 0.5), Tolerances(angle_abs=0.5)),
)


def equation_matrix(q: UnitQuaternion, perm_class: PermClass) -> np.ndarray:
    """Independent oracle: assemble the 6x9 system column by column straight
    from the defining equations, eliminating the fourth vertex through the
    centroid condition."""
    r = quat_to_matrix(q)
    sigma = CANONICAL_PERMUTATION[perm_class]

    def residual(vec9):
        p = vec9.reshape(3, 3)
        pts = np.vstack([p, -p.sum(axis=0)])
        rows = []
        for i in range(3):
            image = pts[sigma.image(i + 1) - 1]
            rows.extend((r @ pts[i])[:2] - image[:2])
        return np.array(rows)

    return np.column_stack([residual(e) for e in np.eye(9)])


class TestBuildConfigMatrix:
    def test_oblique_sixth_turn(self):
        # the projected rotation A of the four-cycle instance, which the
        # identity-class system carries as A - I on its diagonal blocks
        inst = four_cycle_instance()
        expected = np.array([[0.75, -SQ38, 0.25], [SQ38, 0.5, -SQ38]])
        np.testing.assert_allclose(quat_to_matrix(inst.rotation)[:2], expected, atol=1e-15)
        m = build_config_matrix(inst.rotation, PermClass.IDENTITY)
        np.testing.assert_allclose(m[2:4, 3:6], expected - np.eye(2, 3), atol=1e-15)

    def test_identity_rotation_gives_zero_matrix(self):
        m = build_config_matrix(UnitQuaternion(1, 0, 0, 0), PermClass.IDENTITY)
        np.testing.assert_allclose(m, np.zeros((6, 9)), atol=1e-15)

    def test_horizontal_half_turn_identity_class(self):
        m = build_config_matrix(Q_HORIZ_PI, PermClass.IDENTITY)
        block = np.array([[0.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
        expected = np.zeros((6, 9))
        for i in range(3):
            expected[2 * i : 2 * i + 2, 3 * i : 3 * i + 3] = block
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_vertical_half_turn_double_two_cycle(self):
        m = build_config_matrix(Q_VERT_PI, PermClass.DOUBLE_TWO_CYCLE)
        np.testing.assert_allclose(m[:2, :3], [[-1, 0, 0], [0, -1, 0]], atol=1e-15)
        np.testing.assert_allclose(m[4:, 6:], np.zeros((2, 3)), atol=1e-15)

    def test_matches_equation_oracle_for_all_classes(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            q = random_unit_quaternion(rng)
            for perm_class in PermClass:
                np.testing.assert_allclose(
                    build_config_matrix(q, perm_class),
                    equation_matrix(q, perm_class),
                    atol=1e-12,
                )


class TestNumericRank:
    def test_identity_class_horizontal_half_turn(self):
        assert numeric_rank(build_config_matrix(Q_HORIZ_PI, PermClass.IDENTITY)) == 3

    def test_double_two_cycle_vertical_half_turn(self):
        assert numeric_rank(build_config_matrix(Q_VERT_PI, PermClass.DOUBLE_TWO_CYCLE)) == 2

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((6, 9))) == 0
        assert numeric_rank(np.zeros((0, 9))) == 0  # no singular value at all

    def test_rank_plus_nullity_is_nine(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            for perm_class in PermClass:
                m = build_config_matrix(q, perm_class)
                assert numeric_rank(m) + null_space_basis(m).shape[0] == 9


class TestConfigDimension:
    def test_identity_class_horizontal(self):
        assert config_dimension(Q_HORIZ_PI, PermClass.IDENTITY) == 6

    def test_double_two_cycle_vertical_half_turn(self):
        assert config_dimension(Q_VERT_PI, PermClass.DOUBLE_TWO_CYCLE) == 7

    def test_generic_oblique_rotation_gives_three(self):
        q = quat_from_axis_angle(np.array([2.0, -1.0, 3.0]) / math.sqrt(14.0), 0.7)
        for perm_class in PermClass:
            assert config_dimension(q, perm_class) == 3

    def test_rejects_identity_rotation(self):
        for q, tol in IDENTITY_CASES:
            for perm_class in PermClass:
                with pytest.raises(ValueError, match=IDENTITY_REFUSAL):
                    config_dimension(q, perm_class, tol)

    def test_lower_bound_three(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            q = random_unit_quaternion(rng)
            if classify_rotation(q)[0] is AxisClass.NO_AXIS:
                continue
            for perm_class in PermClass:
                assert config_dimension(q, perm_class) >= 3


class TestPredictedDimension:
    def test_three_cycle_horizontal_any_angle(self):
        assert predicted_dimension(PermClass.THREE_CYCLE, AxisClass.HORIZONTAL, 0.3) == 4
        assert predicted_dimension(PermClass.THREE_CYCLE, AxisClass.HORIZONTAL, math.pi) == 4

    def test_four_cycle_vertical_quarter_turn(self):
        assert predicted_dimension(PermClass.FOUR_CYCLE, AxisClass.VERTICAL, math.pi / 2) == 5

    def test_two_cycle_oblique_generic(self):
        assert predicted_dimension(PermClass.TWO_CYCLE, AxisClass.OBLIQUE, 1.0) == 3

    def test_the_identity_is_labelled_as_such(self):
        # case_label reads no angle for a rotation without an axis
        for alpha in (0.0, math.pi):
            assert case_label(AxisClass.NO_AXIS, alpha) == "identity"

    def test_rejects_zero_angle(self):
        with pytest.raises(ValueError, match=IDENTITY_REFUSAL):
            predicted_dimension(PermClass.IDENTITY, AxisClass.HORIZONTAL, 0.0)
        # the identity's class at angle_abs, and the class and angle of the same turn at the default
        for q, tol in IDENTITY_CASES:
            for axis_class, alpha in (classify_rotation(q, tol), classify_rotation(q)):
                for perm_class in PermClass:
                    with pytest.raises(ValueError, match=IDENTITY_REFUSAL):
                        predicted_dimension(perm_class, axis_class, alpha, tol)

    def test_computed_matches_predicted_on_every_cell(self):
        for index, cell in enumerate(CLASSIFICATION_CELLS):
            for trial in range(20):
                rng = np.random.default_rng([21, index, trial])
                q = sample_cell_rotation(cell, rng)
                axis_class, alpha = classify_rotation(q)
                assert axis_class is cell.axis_class
                predicted = predicted_dimension(cell.perm_class, axis_class, alpha)
                assert predicted == cell.expected_dim
                assert config_dimension(q, cell.perm_class) == predicted, cell.label()

    def test_table_matches_rank_on_all_sixty_cells(self):
        # every class x axis class x {generic, half, quarter, third}; the
        # classification cells sweep only 21 of these
        angles = ((0.1, 3.0), math.pi, math.pi / 2, 2 * math.pi / 3)
        axes = (AxisClass.HORIZONTAL, AxisClass.VERTICAL, AxisClass.OBLIQUE)
        cells = [CaseCell(p, a, t) for p in PermClass for a in axes for t in angles]
        assert len(cells) == 60
        mismatches = []
        for index, cell in enumerate(cells):
            for trial in range(10):
                q = sample_cell_rotation(cell, np.random.default_rng([26, index, trial]))
                axis_class, alpha = classify_rotation(q)
                assert axis_class is cell.axis_class
                predicted = predicted_dimension(cell.perm_class, axis_class, alpha)
                if predicted != config_dimension(q, cell.perm_class) or predicted != cell.expected_dim:
                    mismatches.append((cell.label(), trial))
        assert mismatches == []

    def test_four_cycle_horizontal_half_turn_is_special(self):
        # the half-turn family exists for horizontal axes as well; the rank
        # drops to 5 exactly as for oblique half-turns
        assert config_dimension(Q_HORIZ_PI, PermClass.FOUR_CYCLE) == 4
        assert predicted_dimension(PermClass.FOUR_CYCLE, AxisClass.HORIZONTAL, math.pi) == 4

    def test_dimension_is_discontinuous_at_special_cells(self):
        eps = 1e-6
        tilted = np.array([eps, 0.0, math.sqrt(1 - eps * eps)])
        # double two-cycle: 7 on the vertical half-turn cell, 3 for a
        # slightly shorter turn, 5 once the axis tilts away from vertical
        assert config_dimension(quat_from_axis_angle([0, 0, 1], math.pi), PermClass.DOUBLE_TWO_CYCLE) == 7
        assert config_dimension(quat_from_axis_angle([0, 0, 1], math.pi - eps), PermClass.DOUBLE_TWO_CYCLE) == 3
        assert config_dimension(quat_from_axis_angle(tilted, math.pi), PermClass.DOUBLE_TWO_CYCLE) == 5
        # identity class: 6 on the horizontal cell, 3 once the axis lifts
        lifted = np.array([math.sqrt(1 - eps * eps), 0.0, eps])
        assert config_dimension(quat_from_axis_angle([1, 0, 0], 1.2), PermClass.IDENTITY) == 6
        assert config_dimension(quat_from_axis_angle(lifted, 1.2), PermClass.IDENTITY) == 3
        # four-cycle: 5 on the vertical quarter-turn cell, 3 just off it
        assert config_dimension(quat_from_axis_angle([0, 0, 1], math.pi / 2), PermClass.FOUR_CYCLE) == 5
        assert config_dimension(quat_from_axis_angle([0, 0, 1], math.pi / 2 + eps), PermClass.FOUR_CYCLE) == 3


class TestCaseCellLabel:
    def test_an_exact_angle_that_is_no_special_turn_is_named_by_its_value(self):
        # as a range cell names its angles, not by the axis class a second time
        assert CaseCell(PermClass.TWO_CYCLE, AxisClass.HORIZONTAL, 1.0).label() == "two-cycle / horizontal / angle 1.00"
        assert CaseCell(PermClass.FOUR_CYCLE, AxisClass.VERTICAL, 3.14159).label() == "four-cycle / vertical / angle 3.14"

    def test_the_classification_cells_keep_their_labels(self):
        # the cells verify-dims reports, each a range or a special turn
        assert [cell.label() for cell in CLASSIFICATION_CELLS] == [
            "identity / oblique / angle in (0.10, 3.00)",
            "identity / horizontal / angle in (0.10, 3.14)",
            "two-cycle / oblique / angle in (0.10, 3.00)",
            "two-cycle / horizontal / angle in (0.10, 3.00)",
            "two-cycle / horizontal / half-turn",
            "two-cycle / vertical / half-turn",
            "two-cycle / oblique / half-turn",
            "double-two-cycle / oblique / angle in (0.10, 3.00)",
            "double-two-cycle / horizontal / angle in (0.10, 3.00)",
            "double-two-cycle / horizontal / half-turn",
            "double-two-cycle / vertical / half-turn",
            "double-two-cycle / oblique / half-turn",
            "three-cycle / oblique / angle in (0.10, 3.00)",
            "three-cycle / horizontal / angle in (0.10, 3.14)",
            "three-cycle / vertical / third-turn",
            "four-cycle / oblique / angle in (0.10, 3.00)",
            "four-cycle / vertical / quarter-turn",
            "four-cycle / vertical / half-turn",
            "four-cycle / oblique / half-turn",
            "four-cycle / horizontal / angle in (0.10, 3.00)",
            "four-cycle / horizontal / half-turn",
        ]


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class QSqrt3:
    """a + b sqrt(3) with rational a and b, the field of the horizontal and
    vertical third turns.  Mixes with int and Fraction on either side."""

    def __init__(self, a, b=0) -> None:
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(x) -> "QSqrt3":
        return x if isinstance(x, QSqrt3) else QSqrt3(x)

    def __add__(self, other):
        other = QSqrt3.of(other)
        return QSqrt3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    def __sub__(self, other):
        return self + -QSqrt3.of(other)

    def __rsub__(self, other):
        return QSqrt3.of(other) - self

    def __mul__(self, other):
        other = QSqrt3.of(other)
        return QSqrt3(self.a * other.a + 3 * self.b * other.b, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # times the conjugate over the rational norm a^2 - 3 b^2, which sqrt(3)'s
        # irrationality keeps nonzero for every nonzero element
        other = QSqrt3.of(other)
        norm = other.a * other.a - 3 * other.b * other.b
        return self * QSqrt3(other.a / norm, -other.b / norm)

    def __rtruediv__(self, other):
        return QSqrt3.of(other) / self

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction, QSqrt3)):
            return NotImplemented
        other = QSqrt3.of(other)
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(3.0)


ROOT3 = QSqrt3(0, 1)


def exact_config_matrix(quat: tuple, perm_class: PermClass) -> list[list]:
    """The system of build_config_matrix in exact arithmetic: the rotation rows
    of a quaternion with integer or field entries added to the exact entries
    of the coupling.  Integer entries are taken as Fractions."""
    entries = _rotation_rows(*(Fraction(x) if isinstance(x, int) else x for x in quat))
    flat = [Fraction(x) for x in _COUPLING[perm_class].ravel().tolist()]
    for index, value in zip(_DIAGONAL.tolist(), entries[:6] * 3):
        flat[index] += value
    return [flat[9 * i : 9 * i + 9] for i in range(6)]


class TestExactDimensionCertificate:
    """The dimension table in exact arithmetic, at one quaternion per axis
    class and special angle.  An integer quaternion has a rational rotation
    matrix, so elimination over Fraction gives the exact rank.  The
    horizontal and vertical third turns need Q(sqrt 3), since 3a^2 = b^2 + c^2
    has no nonzero integer solution: (1, sqrt 3, 0, 0) and (1, 0, 0, sqrt 3)
    are eliminated over QSqrt3."""

    REPRESENTATIVES = {
        (3, 1, 2, 5): (AxisClass.OBLIQUE, None),
        (3, 1, 2, 0): (AxisClass.HORIZONTAL, None),
        (3, 0, 0, 1): (AxisClass.VERTICAL, None),
        (0, 1, 2, 3): (AxisClass.OBLIQUE, "half-turn"),
        (0, 1, 2, 0): (AxisClass.HORIZONTAL, "half-turn"),
        (0, 0, 0, 1): (AxisClass.VERTICAL, "half-turn"),
        (3, 1, 2, 2): (AxisClass.OBLIQUE, "quarter-turn"),
        (1, 1, 0, 0): (AxisClass.HORIZONTAL, "quarter-turn"),
        (1, 0, 0, 1): (AxisClass.VERTICAL, "quarter-turn"),
        (1, 1, 1, 1): (AxisClass.OBLIQUE, "third-turn"),
        (1, ROOT3, 0, 0): (AxisClass.HORIZONTAL, "third-turn"),
        (1, 0, 0, ROOT3): (AxisClass.VERTICAL, "third-turn"),
    }
    # the integer quaternions in order, then the two in Q(sqrt 3)
    QUATS = sorted(q for q in REPRESENTATIVES if ROOT3 not in q) + [q for q in REPRESENTATIVES if ROOT3 in q]

    @pytest.mark.parametrize("quat", QUATS)
    def test_representative_lies_in_its_cell(self, quat):
        axis_class, alpha = classify_rotation(UnitQuaternion.normalized(*map(float, quat)))
        assert (axis_class, _special_turn(alpha, DEFAULT_TOLERANCES.angle_abs)) == self.REPRESENTATIVES[quat]

    @pytest.mark.parametrize("perm_class", list(PermClass))
    @pytest.mark.parametrize("quat", QUATS)
    def test_exact_rank_gives_the_table_dimension(self, quat, perm_class):
        axis_class, special = self.REPRESENTATIVES[quat]
        rank = exact_rank(exact_config_matrix(quat, perm_class))
        assert 9 - rank == _table_dimension(perm_class, axis_class, special)
        assert numeric_rank(build_config_matrix(UnitQuaternion.normalized(*map(float, quat)), perm_class)) == rank

    def test_third_turns_in_q_sqrt3_give_their_dimensions(self):
        # the table's values for identity, two-, double-two-, three- and four-cycle
        for quat, dims in (((1, ROOT3, 0, 0), (6, 5, 4, 4, 3)), ((1, 0, 0, ROOT3), (3, 3, 3, 5, 3))):
            assert tuple(9 - exact_rank(exact_config_matrix(quat, c)) for c in PermClass) == dims

    def test_q_sqrt3_arithmetic(self):
        x, y = QSqrt3(2, -1), QSqrt3(Fraction(1, 3), 5)
        assert ROOT3 * ROOT3 == 3
        assert (x * y) / y == x
        assert 1 / x * x == 1
        assert x - y + y == x
        assert 2 - x == QSqrt3(0, 1)
        assert x != 2 and ROOT3 != 0
        assert float(x) == pytest.approx(2 - math.sqrt(3))


class TestNullSpaceBasis:
    def test_zero_matrix_has_full_basis(self):
        basis = null_space_basis(np.zeros((6, 9)))
        assert basis.shape == (9, 9)
        np.testing.assert_allclose(basis @ basis.T, np.eye(9), atol=1e-12)

    def test_basis_vectors_annihilate_the_matrix(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            q = random_unit_quaternion(rng)
            for perm_class in PermClass:
                m = build_config_matrix(q, perm_class)
                basis = null_space_basis(m)
                np.testing.assert_allclose(basis @ basis.T, np.eye(basis.shape[0]), atol=1e-12)
                if basis.shape[0]:
                    norm = np.linalg.norm(m)
                    assert np.max(np.linalg.norm(m @ basis.T, axis=0)) <= 10 * 1e-9 * max(norm, 1.0)

    def test_oblique_identity_basis_lies_on_the_axis(self):
        q = four_cycle_instance().rotation
        axis = quat_to_axis_angle(q).axis
        basis = null_space_basis(build_config_matrix(q, PermClass.IDENTITY))
        assert basis.shape[0] == 3
        for vec in basis:
            for point in vec.reshape(3, 3):
                assert np.linalg.norm(np.cross(point, axis)) <= 1e-9

    def test_double_two_cycle_vertical_half_turn_has_seven(self):
        assert null_space_basis(build_config_matrix(Q_VERT_PI, PermClass.DOUBLE_TWO_CYCLE)).shape[0] == 7


class TestMinorSigmaId:
    def test_vertical_half_turn(self):
        assert minor_sigma_id(Q_VERT_PI) == pytest.approx(8.0, abs=1e-12)

    def test_vanishes_for_horizontal_axes(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            q = quat_from_axis_angle([math.cos(theta), math.sin(theta), 0.0], rng.uniform(0.1, math.pi))
            assert abs(minor_sigma_id(q)) <= 1e-12

    def test_oblique_sixth_turn_value(self):
        got = minor_sigma_id(four_cycle_instance().rotation)
        assert got == pytest.approx(1.0 / 64.0, abs=1e-12)

    def test_closed_form_on_random_quaternions(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            q = random_unit_quaternion(rng)
            assert abs(minor_sigma_id(q) - 8.0 * q.d**6) <= 1e-12

    def test_normalization_against_literal_determinant(self):
        # the exposed discriminant is the 6x6 determinant divided by 8
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            m = build_config_matrix(q, PermClass.IDENTITY)
            literal = np.linalg.det(m[:, [0, 1, 3, 4, 6, 7]])
            assert minor_sigma_id(q) == pytest.approx(literal / 8.0, abs=1e-12)


class TestMidpointFrame:
    def test_four_cycle_instance_values(self):
        frame = midpoint_frame(four_cycle_instance().tetrahedron)
        np.testing.assert_allclose(frame.n2, [-0.5, -1.5 * SQ6, -1.5], atol=1e-13)

    def test_reconstruction_identities(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            tetra = random_full_dim_tetrahedron(rng)
            frame = midpoint_frame(tetra)
            np.testing.assert_allclose(frame.vertices(), tetra.vertices, atol=1e-12)

    def test_regular_simplex_symmetry(self):
        tetra = Tetrahedron([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        frame = midpoint_frame(tetra)
        norms = [np.linalg.norm(v) for v in (frame.n2, frame.n3, frame.n4)]
        np.testing.assert_allclose(norms, norms[0], atol=1e-14)

    def test_cancellation(self):
        p1 = np.array([1.0, 2.0, 3.0])
        p3 = np.array([-4.0, 0.5, 2.0])
        tetra = Tetrahedron(np.vstack([p1, -p1, p3, -p3]))
        np.testing.assert_allclose(midpoint_frame(tetra).n2, np.zeros(3), atol=1e-15)


class TestSampleTetrahedron:
    def test_deterministic_for_equal_seeds(self):
        q = four_cycle_instance().rotation
        a = sample_tetrahedron(q, PermClass.FOUR_CYCLE, 42)
        b = sample_tetrahedron(q, PermClass.FOUR_CYCLE, 42)
        np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_rejects_identity_rotation(self):
        for q, tol in IDENTITY_CASES:
            for perm_class in PermClass:
                with pytest.raises(ValueError, match=IDENTITY_REFUSAL):
                    sample_tetrahedron(q, perm_class, 0, tol)

    def test_only_a_tetrahedron_built_from_outside_numbers_is_checked(self, monkeypatch):
        # the sampler and the bundled instances build from the library's own numbers
        checked = []
        original = geom.as_finite_array
        monkeypatch.setattr(geom, "as_finite_array", lambda *args: checked.append(args[2]) or original(*args))
        rng = np.random.default_rng(24)
        samples = [
            sample_tetrahedron(sample_cell_rotation(cell, rng), cell.perm_class, rng) for cell in CLASSIFICATION_CELLS
        ]
        assert checked == []
        four_cycle_instance()
        planar_instance()
        assert checked == []  # their projections are taken by project from the tetrahedra
        Tetrahedron(samples[0].vertices)
        assert checked.count("vertices") == 1

    def test_an_all_zero_draw_is_drawn_again(self):
        # a zero coefficient vector has no direction: scaled by its norm it would be NaN
        class Replay:
            def __init__(self, *draws):
                self.draws = list(draws)

            def standard_normal(self, size):
                return self.draws.pop(0)[:size]

        basis = null_space_basis(build_config_matrix(Q_VERT_PI, PermClass.DOUBLE_TWO_CYCLE))
        coeffs = np.random.default_rng(27).standard_normal(basis.shape[0])
        stub = Replay(np.zeros(basis.shape[0]), np.zeros(basis.shape[0]), coeffs)
        redrawn = configspace._draw(basis, stub)
        assert stub.draws == []
        assert redrawn.vertices.tobytes() == configspace._draw(basis, Replay(coeffs)).vertices.tobytes()
        assert np.isfinite(redrawn.vertices).all()

    def test_unit_rms_scale(self):
        q = four_cycle_instance().rotation
        tetra = sample_tetrahedron(q, PermClass.THREE_CYCLE, 1)
        rms = math.sqrt(np.mean(np.sum(tetra.vertices**2, axis=1)))
        assert rms == pytest.approx(1.0, abs=1e-12)

    def test_samples_satisfy_their_projection_equation(self):
        rng = np.random.default_rng(19)
        for index, cell in enumerate(CLASSIFICATION_CELLS):
            q = sample_cell_rotation(cell, np.random.default_rng([23, index]))
            sigma = CANONICAL_PERMUTATION[cell.perm_class]
            for trial in range(5):
                tetra = sample_tetrahedron(q, cell.perm_class, rng)
                assert shadow_miss(apply(q, tetra.vertices), project(tetra).points[list(sigma.zero_based())]) <= 1e-8

    def test_double_two_cycle_vertical_half_turn_projects_to_parallelogram(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            tetra = sample_tetrahedron(Q_VERT_PI, PermClass.DOUBLE_TWO_CYCLE, rng)
            u = project(tetra).points
            np.testing.assert_allclose((u[0] + u[1]) / 2, (u[2] + u[3]) / 2, atol=1e-9)

    def test_identity_horizontal_samples_lie_in_the_tilted_plane(self):
        alpha = 1.1
        q = quat_from_axis_angle([1, 0, 0], alpha)
        normal = np.array([0.0, math.sin(alpha / 2), math.cos(alpha / 2)])
        rng = np.random.default_rng(21)
        for _ in range(10):
            tetra = sample_tetrahedron(q, PermClass.IDENTITY, rng)
            assert np.max(np.abs(tetra.vertices @ normal)) <= 1e-9

    def test_identity_oblique_samples_are_collinear_on_the_axis(self):
        q = four_cycle_instance().rotation
        axis = quat_to_axis_angle(q).axis
        rng = np.random.default_rng(22)
        for _ in range(10):
            tetra = sample_tetrahedron(q, PermClass.IDENTITY, rng)
            for point in tetra.vertices:
                assert np.linalg.norm(np.cross(point, axis)) <= 1e-9

    def test_identity_samples_are_planar(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            if classify_rotation(q)[0] is AxisClass.NO_AXIS:
                continue
            tetra = sample_tetrahedron(q, PermClass.IDENTITY, rng)
            scale = float(np.max(np.linalg.norm(tetra.vertices, axis=1)))
            assert abs(coplanarity_det(tetra.vertices)) <= 1e-9 * scale**3


class TestFourCycleRelations:
    def test_bundled_instance_satisfies_the_relations(self):
        inst = four_cycle_instance()
        assert verify_fourcycle_relations(inst.tetrahedron, inst.rotation)

    def test_sampled_member_satisfies_the_relations(self):
        q = quat_from_axis_angle(np.array([1.0, 2.0, 2.0]) / 3.0, 0.9)
        tetra = sample_tetrahedron(q, PermClass.FOUR_CYCLE, 5)
        assert verify_fourcycle_relations(tetra, q)

    def test_generic_tetrahedron_fails_the_relations(self):
        q = quat_from_axis_angle(np.array([1.0, 2.0, 2.0]) / 3.0, 0.9)
        tetra = random_full_dim_tetrahedron(np.random.default_rng(24))
        assert not verify_fourcycle_relations(tetra, q)

    def test_lambda_scalar_on_bundled_instance(self):
        inst = four_cycle_instance()
        measured, predicted = fourcycle_lambda(inst.tetrahedron, inst.rotation)
        assert measured == pytest.approx(2.0 * SQ6 - 3.0, abs=1e-12)
        assert predicted == pytest.approx(2.0 * SQ6 - 3.0, abs=1e-12)

    def test_lambda_scalar_on_sampled_members(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            z = rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0])
            theta = rng.uniform(0, 2 * math.pi)
            rad = math.sqrt(1 - z * z)
            q = quat_from_axis_angle([rad * math.cos(theta), rad * math.sin(theta), z], rng.uniform(0.2, 2.8))
            tetra = sample_tetrahedron(q, PermClass.FOUR_CYCLE, rng)
            measured, predicted = fourcycle_lambda(tetra, q)
            assert measured == pytest.approx(predicted, abs=1e-9)

    def test_lambda_rejects_non_oblique_axes(self):
        tetra = sample_tetrahedron(Q_VERT_PI, PermClass.FOUR_CYCLE, 0)
        with pytest.raises(ValueError):
            fourcycle_lambda(tetra, Q_VERT_PI)
        with pytest.raises(ValueError):
            fourcycle_lambda(tetra, Q_HORIZ_PI)

    def test_lambda_rejects_an_oblique_half_turn(self):
        # tan(alpha / 2) has no finite value at a half turn
        q = quat_from_axis_angle(np.array([1.0, 2.0, 2.0]) / 3.0, math.pi)
        tetra = sample_tetrahedron(q, PermClass.FOUR_CYCLE, 0)
        with pytest.raises(ValueError, match="^the offset scalar requires an angle strictly below a half turn$"):
            fourcycle_lambda(tetra, q)
