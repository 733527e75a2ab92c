import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrot import (
    ALL_PERMUTATIONS,
    CANONICAL_PERMUTATION,
    DEFAULT_TOLERANCES,
    PermClass,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    project,
    prune_permutations,
    quat_from_axis_angle,
)
from tetrot.geom import MAX_MAGNITUDE
from tetrot.instances import four_cycle_instance, planar_instance

from conftest import random_full_dim_tetrahedron, shadow_miss
from paper_identities import coplanarity_det

SQ6 = math.sqrt(6.0)

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vertex_sets = st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=4)


class TestRecentre:
    """The Tetrahedron constructor recentres its vertices on the centroid."""

    def test_off_centre_input_is_shifted(self):
        tetra = Tetrahedron([[1, 0, 0], [1, 1, 0], [2, 1, 2], [4, -2, -2]])
        expected = np.array([[-1, 0, 0], [-1, 1, 0], [0, 1, 2], [2, -2, -2]], dtype=float)
        np.testing.assert_allclose(tetra.vertices, expected, atol=1e-15)
        np.testing.assert_allclose(tetra.vertices.sum(axis=0), 0.0, atol=1e-12)

    def test_centred_input_is_unchanged(self):
        inst = four_cycle_instance()
        again = Tetrahedron(inst.tetrahedron.vertices)
        np.testing.assert_allclose(again.vertices, inst.tetrahedron.vertices, atol=1e-13)

    def test_all_zero(self):
        tetra = Tetrahedron(np.zeros((4, 3)))
        np.testing.assert_array_equal(tetra.vertices, np.zeros((4, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Tetrahedron([[np.nan, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejects_a_magnitude_whose_square_overflows(self, sign):
        vertices = np.eye(4, 3)
        vertices[2, 1] = sign * 1e160
        points = np.eye(4, 2)
        points[3, 0] = sign * 1e160
        with pytest.raises(ValueError, match="magnitude"):
            Tetrahedron(vertices)
        with pytest.raises(ValueError, match="magnitude"):
            ProjectionQuad(points)
        with pytest.raises(ValueError, match="magnitude"):
            prune_permutations(vertices, ProjectionQuad(np.eye(4, 2)))

    @pytest.mark.parametrize("vertex, point", [([1, 2], [1]), (["a", 2, 3], ["a", 2]), ({"x": 1}, {"x": 1})],
                             ids=["ragged", "string", "dict"])
    def test_rejects_an_entry_that_is_not_a_row_of_numbers(self, vertex, point):
        with pytest.raises(ValueError, match=r"^vertices .*\(4, 3\)"):
            Tetrahedron([[1, 2, 3], [4, 5, 6], [7, 8, 9], vertex])
        with pytest.raises(ValueError, match=r"^points .*\(4, 2\)"):
            ProjectionQuad([[1, 2], [4, 5], [7, 8], point])

    @pytest.mark.parametrize(
        "build, name, shape",
        [
            (lambda: Tetrahedron([["1", 0, 0], [0, "1", 0], [0, 0, "1"], [True, False, 0]]), "vertices", (4, 3)),
            (lambda: Tetrahedron([[1, 0, 0], [0, 1, 0], [0, 0, 1], [True, False, 0]]), "vertices", (4, 3)),
            (lambda: quat_from_axis_angle(["0", "0", "1"], 1.0), "axis", (3,)),
            (lambda: ProjectionQuad(np.eye(4, 2, dtype=bool)), "points", (4, 2)),
            (lambda: ProjectionQuad(np.array([[1, 0], [0, 1], [0, 0], ["1", 0]], dtype=object)), "points", (4, 2)),
        ],
        ids=["numeric-strings-and-bools", "bools", "axis-of-strings", "bool-array", "object-array-with-a-string"],
    )
    def test_rejects_numeric_strings_and_booleans(self, build, name, shape):
        # numpy alone reads "1" and True as the number 1
        message = f"{name} must be numbers in shape {shape}, got ragged nesting or a non-number"
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_rejects_an_int_beyond_the_float_range(self):
        # numpy raises OverflowError converting it; the library's refusal is a ValueError
        with pytest.raises(ValueError, match="^vertices must contain only finite values up to 1e\\+150 in magnitude$"):
            Tetrahedron([[10**400, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_admits_numpy_numbers_and_integer_arrays(self):
        rows = [[np.int64(1), np.float32(0.5), 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert Tetrahedron(rows).vertices.tobytes() == Tetrahedron(np.array(rows, dtype=float)).vertices.tobytes()
        assert ProjectionQuad(np.eye(4, 2, dtype=np.int32)).points.dtype == float
        # an object array is walked entry by entry, and numbers of any kind pass
        mixed = np.array([[1, 0.5], [np.int64(0), np.float32(1)], [0, 0], [2, 3]], dtype=object)
        assert ProjectionQuad(mixed).points.tobytes() == ProjectionQuad(mixed.astype(float)).points.tobytes()

    def test_admits_the_bound_itself(self):
        vertices = np.eye(4, 3) * MAX_MAGNITUDE
        quad = ProjectionQuad(np.eye(4, 2) * MAX_MAGNITUDE)
        Tetrahedron(vertices)
        # the norm test squares every coordinate; at the bound none overflows
        assert prune_permutations(vertices, quad)

    @settings(max_examples=50, deadline=None)
    @given(vertex_sets)
    def test_idempotent(self, vertices):
        once = Tetrahedron(vertices)
        twice = Tetrahedron(once.vertices)
        np.testing.assert_allclose(twice.vertices, once.vertices, atol=1e-9)


class TestProject:
    def test_four_cycle_instance_shadow(self):
        inst = four_cycle_instance()
        expected = np.array([[-2, -3 + SQ6], [1, 3 - 4 * SQ6], [2, -3 + 3 * SQ6], [-1, 3]])
        np.testing.assert_allclose(project(inst.tetrahedron).points, expected, atol=1e-13)

    def test_planar_instance_shadow(self):
        inst = planar_instance()
        expected = np.array([[-1, 0], [0, 0], [0, 0], [1, 0]], dtype=float)
        np.testing.assert_array_equal(project(inst.tetrahedron).points, expected)

    def test_projects_an_admitted_tetrahedron_recentred_past_the_bound(self):
        # recentring moves the first x from 1e150 to 1.5e150, past the bound of an input quad
        tetra = Tetrahedron([[1e150, 0, 0], [-1e150, 0, 1], [-1e150, 1, 0], [-1e150, 1, 1]])
        assert tetra.vertices[0, 0] > MAX_MAGNITUDE
        quad = project(tetra)
        assert isinstance(quad, ProjectionQuad)
        assert quad.points.tobytes() == tetra.vertices[:, :2].tobytes()
        assert quad.points.flags.c_contiguous and not quad.points.flags.writeable
        assert not np.shares_memory(quad.points, tetra.vertices)
        with pytest.raises(ValueError, match="magnitude"):
            ProjectionQuad(quad.points)

    def test_flat_tetrahedron_projects_to_itself(self):
        tetra = Tetrahedron([[1, 2, 0], [-1, 0, 0], [0, -2, 0], [0, 0, 0]])
        np.testing.assert_allclose(project(tetra).points, tetra.vertices[:, :2], atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(vertex_sets, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_linear_in_scaling(self, vertices, scale):
        tetra = Tetrahedron(vertices)
        scaled = Tetrahedron(tetra.vertices * scale)
        np.testing.assert_allclose(
            project(scaled).points, project(tetra).points * scale, atol=1e-6
        )


class TestQuadMatch:
    """Whether a shadow matches four points is decided by the gate's rule, _misses, against a bound."""

    def test_identity_match(self):
        tetra = four_cycle_instance().tetrahedron
        assert shadow_miss(tetra.vertices, project(tetra).points) <= 1e-12

    def test_four_cycle_relabeling_matches(self):
        inst = four_cycle_instance()
        assert shadow_miss(inst.rotated_vertices, inst.projection.points[list(inst.sigma.zero_based())]) <= 1e-12

    def test_four_cycle_identity_fails(self):
        inst = four_cycle_instance()
        assert not shadow_miss(inst.rotated_vertices, inst.projection.points) <= 1e-6

    def test_multiset_match_with_coincident_points(self):
        tetra = planar_instance().tetrahedron
        shuffled = project(tetra).points[[3, 1, 2, 0]]
        assert any(
            shadow_miss(tetra.vertices, shuffled[list(sigma.zero_based())]) <= DEFAULT_TOLERANCES.geom_abs
            for sigma in ALL_PERMUTATIONS
        )


class TestFullDimensional:
    def test_random_tetrahedra_are_full_dimensional(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert random_full_dim_tetrahedron(rng).full_dimensional()

    def test_affine_relation_kills_full_dimensionality(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.standard_normal((3, 3))
            vertices = np.vstack([p, p[0] + p[1] - p[2]])
            tetra = Tetrahedron(vertices)
            assert abs(coplanarity_det(tetra.vertices)) < 1e-9
            assert not tetra.full_dimensional()

    def test_coplanarity_det_nonzero_in_general(self):
        rng = np.random.default_rng(9)
        tetra = random_full_dim_tetrahedron(rng, min_ratio=0.1)
        assert abs(coplanarity_det(tetra.vertices)) > 1e-6


class TestPermutation4:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation4((1, 1, 2, 3))

    @pytest.mark.parametrize("images", [
        (1.9, 2, 3, 4.2), ("1", "2", "3", "4"), (2, 1, 3.5, 4), (True, 2, 3, 4), (np.True_, 2, 3, 4),
        (math.inf, 2, 3, 4), (math.nan, 2, 3, 4), ((1,), 2, 3, 4), ([1], 2, 3, 4), (np.array([1]), 2, 3, 4),
    ])
    def test_rejects_images_that_are_not_integers(self, images):
        # int() would read the first, second, fourth and fifth as the identity and the third as
        # (2, 1, 3, 4), and raise its own error on an infinity or a NaN; sorted cannot compare a
        # nested image with a number
        with pytest.raises(ValueError, match="permutation of 1..4"):
            Permutation4(images)

    def test_images_equal_to_integers_are_kept_as_integers(self):
        assert Permutation4((2.0, 1, np.int64(3), 4)).images == (2, 1, 3, 4)

    def test_class_counts_match_conjugacy_sizes(self):
        counts = {cls: 0 for cls in PermClass}
        for sigma in ALL_PERMUTATIONS:
            counts[sigma.perm_class()] += 1
        assert counts == {
            PermClass.IDENTITY: 1,
            PermClass.TWO_CYCLE: 6,
            PermClass.DOUBLE_TWO_CYCLE: 3,
            PermClass.THREE_CYCLE: 8,
            PermClass.FOUR_CYCLE: 6,
        }

    def test_class_is_the_cycle_type(self):
        # the written-out definition: walk each cycle of sigma and sort the lengths
        def cycle_type(sigma):
            seen, lengths = set(), []
            for start in (1, 2, 3, 4):
                if start in seen:
                    continue
                j, length = start, 0
                while j not in seen:
                    seen.add(j)
                    j = sigma.image(j)
                    length += 1
                lengths.append(length)
            return tuple(sorted(lengths))

        by_type = {
            (1, 1, 1, 1): PermClass.IDENTITY,
            (1, 1, 2): PermClass.TWO_CYCLE,
            (2, 2): PermClass.DOUBLE_TWO_CYCLE,
            (1, 3): PermClass.THREE_CYCLE,
            (4,): PermClass.FOUR_CYCLE,
        }
        assert len(ALL_PERMUTATIONS) == 24
        for sigma in ALL_PERMUTATIONS:
            assert sigma.perm_class() is by_type[cycle_type(sigma)], sigma.images

    def test_canonical_representatives(self):
        assert CANONICAL_PERMUTATION[PermClass.TWO_CYCLE].images == (2, 1, 3, 4)
        assert CANONICAL_PERMUTATION[PermClass.DOUBLE_TWO_CYCLE].images == (2, 1, 4, 3)
        assert CANONICAL_PERMUTATION[PermClass.THREE_CYCLE].images == (2, 3, 1, 4)
        assert CANONICAL_PERMUTATION[PermClass.FOUR_CYCLE].images == (2, 3, 4, 1)
        for cls, sigma in CANONICAL_PERMUTATION.items():
            assert sigma.perm_class() is cls


class TestTolerances:
    def test_defaults_are_positive(self):
        tol = Tolerances()
        assert tol.rank_rel == 1e-9
        assert tol.geom_abs == 1e-8
        assert tol.angle_abs == 1e-9
        # one field per --tol-* flag; the dedupe distance is a constant of the solver
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank_rel", "geom_abs", "angle_abs"]

    @pytest.mark.parametrize("field", ["rank_rel", "geom_abs", "angle_abs"])
    def test_rejects_non_positive(self, field):
        # Tolerances is the one check of every library threshold: no NaN, infinity or negative passes
        for value, shown in ((0.0, "0.0"), (-1e-8, "-1e-08"), (math.nan, "nan"), (math.inf, "inf"),
                             (-math.inf, "-inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite and strictly positive, got {shown}$"):
                Tolerances(**{field: value})
        # a bool, a string or a list is no number, whatever numpy would make of it, a ragged
        # list included, and neither is an int beyond the float range
        for value in (True, np.True_, "1e-8", None, [1e-8], [[1e-8], [1e-8, 2.0]], 10**400):
            with pytest.raises(ValueError, match=f"^{field} must be a number, got "):
                Tolerances(**{field: value})

    @pytest.mark.parametrize("rank_rel", [1.0, 2.0])
    def test_rejects_a_rank_cutoff_that_drops_every_singular_value(self, rank_rel):
        with pytest.raises(ValueError, match="rank_rel must be below 1"):
            Tolerances(rank_rel=rank_rel)
