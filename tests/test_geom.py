import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrot import (
    ALL_PERMUTATIONS,
    CANONICAL_PERMUTATION,
    IDENTITY_PERMUTATION,
    PermClass,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    coplanarity_det,
    project,
    quad_match,
)
from tetrot.instances import four_cycle_instance, planar_instance

from conftest import random_full_dim_tetrahedron

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
    def test_identity_match(self):
        quad = project(four_cycle_instance().tetrahedron)
        assert quad_match(quad, quad, IDENTITY_PERMUTATION, 1e-12)

    def test_four_cycle_relabeling_matches(self):
        inst = four_cycle_instance()
        rotated = ProjectionQuad(inst.rotated_vertices[:, :2])
        assert quad_match(rotated, inst.projection, inst.sigma, 1e-12)

    def test_four_cycle_identity_fails(self):
        inst = four_cycle_instance()
        rotated = ProjectionQuad(inst.rotated_vertices[:, :2])
        assert not quad_match(rotated, inst.projection, IDENTITY_PERMUTATION, 1e-6)

    def test_multiset_match_with_coincident_points(self):
        quad = project(planar_instance().tetrahedron)
        shuffled = ProjectionQuad(quad.points[[3, 1, 2, 0]])
        assert quad.multiset_match(shuffled)


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
        assert tol.dedupe == 1e-6

    @pytest.mark.parametrize("field", ["rank_rel", "geom_abs", "angle_abs", "dedupe"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})

    @pytest.mark.parametrize("rank_rel", [1.0, 2.0])
    def test_rejects_a_rank_cutoff_that_drops_every_singular_value(self, rank_rel):
        with pytest.raises(ValueError, match="rank_rel must be below 1"):
            Tolerances(rank_rel=rank_rel)
