import math

import numpy as np
import pytest

from tetrot import (
    ALL_PERMUTATIONS,
    DEFAULT_TOLERANCES,
    CollinearPointsError,
    DegenerateTetrahedronError,
    DegenerateViewError,
    IDENTITY_PERMUTATION,
    Permutation4,
    ProjectionQuad,
    SolveCandidate,
    Tetrahedron,
    UnitQuaternion,
    apply,
    circumcircle3,
    dedupe_rotations,
    fit_conic,
    labeled_solve,
    project,
    prune_permutations,
    quad_match,
    quat_from_axis_angle,
    quat_to_matrix,
    reconstruct_geometric,
    unlabeled_solve,
)
from tetrot.instances import four_cycle_instance, norm_prune_instance, planar_instance

from conftest import random_full_dim_tetrahedron, random_unit_quaternion


def relabeled(quad: ProjectionQuad, sigma: Permutation4) -> ProjectionQuad:
    return ProjectionQuad(quad.points[list(sigma.zero_based())])


def labeled_shadow(tetra: Tetrahedron, q: UnitQuaternion) -> ProjectionQuad:
    return ProjectionQuad(apply(q, tetra.vertices)[:, :2])


class TestCircumcircle:
    def test_unit_circle_in_the_plane(self):
        circle = circumcircle3([1, 0, 0], [0, 1, 0], [-1, 0, 0])
        np.testing.assert_allclose(circle.center, [0, 0, 0], atol=1e-14)
        assert circle.radius == pytest.approx(1.0)
        np.testing.assert_allclose(circle.normal, [0, 0, 1], atol=1e-14)

    def test_scaling(self):
        circle = circumcircle3([2, 0, 0], [0, 2, 0], [-2, 0, 0])
        assert circle.radius == pytest.approx(2.0)

    def test_recovers_a_random_space_circle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            r = quat_to_matrix(q)
            center = rng.standard_normal(3)
            radius = rng.uniform(0.5, 3.0)
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=3))
            pts = [center + radius * (r @ [math.cos(t), math.sin(t), 0.0]) for t in angles]
            circle = circumcircle3(*pts)
            np.testing.assert_allclose(circle.center, center, atol=1e-8)
            assert circle.radius == pytest.approx(radius, abs=1e-8)
            assert abs(abs(circle.normal @ (r @ [0, 0, 1.0])) - 1.0) <= 1e-8

    def test_collinear_points_rejected(self):
        with pytest.raises(CollinearPointsError):
            circumcircle3([0, 0, 0], [1, 1, 1], [2, 2, 2])


class TestFitConic:
    def test_unit_circle(self):
        pts = [(math.cos(t), math.sin(t)) for t in (0.0, 1.0, 2.0, 2.5, 4.0, 5.0)]
        conic = fit_conic(pts)
        expected = np.array([1, 0, 1, 0, 0, -1]) / math.sqrt(3.0)
        np.testing.assert_allclose(conic.coefficients, expected, atol=1e-10)
        assert conic.is_ellipse()

    def test_axis_aligned_ellipse(self):
        pts = [(2 * math.cos(t), math.sin(t)) for t in (0.0, 0.9, 1.7, 2.8, 4.0, 5.5)]
        conic = fit_conic(pts)
        expected = np.array([1, 0, 4, 0, 0, -4], dtype=float)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(conic.coefficients, expected, atol=1e-10)

    def test_exact_points_have_tiny_residual(self):
        rng = np.random.default_rng(32)
        pts = np.array([(3 * math.cos(t) + 1, 2 * math.sin(t) - 4) for t in rng.uniform(0, 2 * math.pi, 8)])
        a, b, c, d, e, f = fit_conic(pts).coefficients
        xs, ys = pts[:, 0], pts[:, 1]
        residual = a * xs**2 + b * xs * ys + c * ys**2 + d * xs + e * ys + f
        assert np.max(np.abs(residual)) <= 1e-10

    def test_collinear_points_rejected(self):
        pts = [(t, 2 * t + 1) for t in range(5)]
        with pytest.raises(CollinearPointsError):
            fit_conic(pts)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_conic([(0, 0), (1, 0), (0, 1), (1, 1)])


class TestLabeledSolve:
    def test_four_cycle_instance_under_its_relabeling(self):
        inst = four_cycle_instance()
        quad = relabeled(inst.projection, inst.sigma)
        candidates = labeled_solve(inst.tetrahedron, quad)
        assert len(candidates) == 1
        assert np.linalg.norm(candidates[0].matrix - inst.matrix) <= 1e-10
        assert candidates[0].residual <= 1e-10
        assert not candidates[0].planar_ambiguous

    def test_own_shadow_recovers_the_identity(self):
        rng = np.random.default_rng(33)
        tetra = random_full_dim_tetrahedron(rng)
        candidates = labeled_solve(tetra, project(tetra))
        assert len(candidates) == 1
        np.testing.assert_allclose(candidates[0].matrix, np.eye(3), atol=1e-10)

    def test_round_trip_on_random_instances(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            tetra = random_full_dim_tetrahedron(rng)
            q = random_unit_quaternion(rng)
            candidates = labeled_solve(tetra, labeled_shadow(tetra, q))
            assert len(candidates) == 1
            assert np.linalg.norm(candidates[0].matrix - quat_to_matrix(q)) <= 1e-8

    def test_planar_instance_has_two_candidates(self):
        inst = planar_instance()
        candidates = labeled_solve(inst.tetrahedron, inst.projection)
        assert len(candidates) == 2
        assert all(c.planar_ambiguous for c in candidates)
        got = sorted(candidates, key=lambda c: c.matrix[1, 1])
        np.testing.assert_allclose(got[0].matrix, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(got[1].matrix, np.eye(3), atol=1e-12)

    def test_planar_instances_never_exceed_two_candidates(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            coords = rng.standard_normal((4, 2))
            basis = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
            tetra = Tetrahedron(coords @ basis)
            q = random_unit_quaternion(rng)
            candidates = labeled_solve(tetra, labeled_shadow(tetra, q))
            assert 1 <= len(candidates) <= 2
            assert all(c.planar_ambiguous for c in candidates)

    def test_unrealizable_shadow_returns_nothing(self):
        rng = np.random.default_rng(36)
        tetra = random_full_dim_tetrahedron(rng)
        stretched = ProjectionQuad(project(tetra).points * 3.0)
        assert labeled_solve(tetra, stretched) == []

    def test_rank_one_vertices_rejected(self):
        tetra = Tetrahedron([[1, 0, 0], [2, 0, 0], [3, 0, 0], [-6, 0, 0]])
        with pytest.raises(DegenerateTetrahedronError):
            labeled_solve(tetra, project(tetra))


class TestReconstructGeometric:
    def test_agrees_on_the_four_cycle_instance(self):
        inst = four_cycle_instance()
        quad = relabeled(inst.projection, inst.sigma)
        candidates = reconstruct_geometric(inst.tetrahedron, quad)
        assert len(candidates) == 1
        assert np.linalg.norm(candidates[0].matrix - inst.matrix) <= 1e-10

    def test_agrees_with_the_linear_solver(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 30:
            tetra = random_full_dim_tetrahedron(rng, min_ratio=0.15)
            q = random_unit_quaternion(rng)
            rotated_normal = quat_to_matrix(q) @ circumcircle3(*tetra.vertices[:3]).normal
            if abs(rotated_normal[2]) < 0.25:
                continue
            quad = labeled_shadow(tetra, q)
            linear = labeled_solve(tetra, quad)
            geometric = reconstruct_geometric(tetra, quad)
            assert len(linear) == 1 and len(geometric) == 1
            assert np.linalg.norm(linear[0].matrix - geometric[0].matrix) <= 1e-6
            checked += 1

    def test_planar_tetrahedron_rejected(self):
        inst = planar_instance()
        with pytest.raises(DegenerateTetrahedronError):
            reconstruct_geometric(inst.tetrahedron, inst.projection)

    def test_collinear_projections_rejected(self):
        # vertices 1..3 in a vertical plane project onto a line
        tetra = Tetrahedron([[0, 0, 0], [1, 0, 1], [2, 0, -1], [0, 3, 0]])
        with pytest.raises(CollinearPointsError):
            reconstruct_geometric(tetra, project(tetra))

    def test_edge_on_view_rejected(self):
        # circumcircle plane tilted within 1e-7 of vertical
        theta = math.pi / 2 - 1e-7
        c, s = math.cos(theta), math.sin(theta)
        tilt = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        base = np.array([[1.0, 0, 0], [-0.6, 0.9, 0], [-0.5, -1.1, 0], [0.1, 0.2, 1.5]])
        tetra = Tetrahedron(base @ tilt.T)
        with pytest.raises((DegenerateViewError, CollinearPointsError)):
            reconstruct_geometric(tetra, project(tetra))


class TestPrunePermutations:
    def test_norm_certificate_leaves_identity_only(self):
        inst = norm_prune_instance()
        assert prune_permutations(inst.vertices, inst.projection) == [IDENTITY_PERMUTATION]

    def test_regular_tetrahedron_keeps_all(self):
        vertices = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        survivors = prune_permutations(vertices, ProjectionQuad(vertices[:, :2]))
        assert len(survivors) == 24

    def test_four_cycle_instance_keeps_its_relabeling(self):
        inst = four_cycle_instance()
        survivors = prune_permutations(inst.tetrahedron.vertices, inst.projection)
        assert inst.sigma in survivors

    def test_never_removes_a_solvable_relabeling(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            tetra = random_full_dim_tetrahedron(rng)
            q = random_unit_quaternion(rng)
            sigma_true = ALL_PERMUTATIONS[rng.integers(24)]
            shadow = labeled_shadow(tetra, q)
            points = np.empty((4, 2))
            points[list(sigma_true.zero_based())] = shadow.points
            quad = ProjectionQuad(points)
            survivors = set(s.images for s in prune_permutations(tetra.vertices, quad))
            for sigma in ALL_PERMUTATIONS:
                if labeled_solve(tetra, relabeled(quad, sigma)):
                    assert sigma.images in survivors


class TestUnlabeledSolve:
    def test_four_cycle_instance_yields_both_rotations(self):
        inst = four_cycle_instance()
        candidates = unlabeled_solve(inst.tetrahedron, inst.projection)
        by_sigma = {c.sigma.images: c for c in candidates}
        assert IDENTITY_PERMUTATION.images in by_sigma
        assert inst.sigma.images in by_sigma
        assert np.linalg.norm(by_sigma[inst.sigma.images].matrix - inst.matrix) <= 1e-10

    def test_planar_instance_swap_branch(self):
        inst = planar_instance()
        candidates = unlabeled_solve(inst.tetrahedron, inst.projection)
        swap = [c for c in candidates if c.sigma == inst.swap_sigma]
        assert len(swap) == 2
        for expected in inst.matrices:
            assert min(np.linalg.norm(c.matrix - expected) for c in swap) <= 1e-10

    def test_ground_truth_is_always_included(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            tetra = random_full_dim_tetrahedron(rng)
            q = random_unit_quaternion(rng)
            sigma_true = ALL_PERMUTATIONS[rng.integers(24)]
            shadow = labeled_shadow(tetra, q)
            points = np.empty((4, 2))
            points[list(sigma_true.zero_based())] = shadow.points
            quad = ProjectionQuad(points)
            candidates = unlabeled_solve(tetra, quad)
            best = min(
                np.linalg.norm(c.matrix - quat_to_matrix(q))
                for c in candidates
                if c.sigma == sigma_true
            )
            assert best <= 1e-8

    def test_candidates_satisfy_their_match_independently(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            tetra = random_full_dim_tetrahedron(rng)
            quad = project(tetra)
            for cand in unlabeled_solve(tetra, quad):
                rotated = labeled_shadow(tetra, cand.rotation)
                assert quad_match(rotated, quad, cand.sigma, 1e-7)

    def test_empty_when_nothing_is_compatible(self):
        rng = np.random.default_rng(41)
        tetra = random_full_dim_tetrahedron(rng)
        stretched = ProjectionQuad(project(tetra).points * 3.0)
        assert unlabeled_solve(tetra, stretched) == []

    @pytest.mark.parametrize("scale", [50.0, 0.1])
    def test_collinear_vertices_rejected_whatever_survives_pruning(self, scale):
        # at scale 50 no relabeling survives the norm test, at 0.1 all do
        tetra = Tetrahedron([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        quad = ProjectionQuad(scale * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
        assert len(prune_permutations(tetra.vertices, quad)) == (0 if scale > 1 else 24)
        with pytest.raises(DegenerateTetrahedronError):
            unlabeled_solve(tetra, quad)


class TestShadowsWithinTolerance:
    """A shadow within geom_abs of a true one gives back the true rotation."""

    @pytest.mark.parametrize("noise", [1e-10, 1e-9])
    def test_noisy_generic_shadows_keep_the_truth(self, noise):
        rng = np.random.default_rng(61)
        for _ in range(500):
            tetra = random_full_dim_tetrahedron(rng)
            truth = quat_to_matrix(random_unit_quaternion(rng))
            quad = ProjectionQuad((tetra.vertices @ truth.T)[:, :2] + rng.normal(0.0, noise, (4, 2)))
            candidates = unlabeled_solve(tetra, quad)
            assert all(c.residual <= DEFAULT_TOLERANCES.geom_abs for c in candidates)
            assert any(
                c.sigma == IDENTITY_PERMUTATION and np.linalg.norm(c.matrix - truth) <= 1e-6 for c in candidates
            )

    @pytest.mark.parametrize("lift", [1e-6, 1e-8, 0.0])
    def test_near_planar_vertex_sets_keep_a_candidate(self, lift):
        rng = np.random.default_rng(67)
        for _ in range(300):
            # four points of a random plane, lifted off it by about `lift`
            basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            offsets = lift * rng.standard_normal((4, 1)) * basis[:, 2]
            tetra = Tetrahedron(rng.standard_normal((4, 2)) @ basis[:, :2].T + offsets)
            truth = quat_to_matrix(random_unit_quaternion(rng))
            quad = ProjectionQuad((tetra.vertices @ truth.T)[:, :2] + rng.normal(0.0, 1e-10, (4, 2)))
            identity = [c for c in unlabeled_solve(tetra, quad) if c.sigma == IDENTITY_PERMUTATION]
            assert identity
            if lift == 1e-6:
                assert min(np.linalg.norm(c.matrix - truth) for c in identity) <= 1e-6


class TestDedupeRotations:
    @staticmethod
    def _candidate(sigma, quat, residual):
        matrix = quat_to_matrix(quat)
        return SolveCandidate(sigma, quat, matrix, residual, False)

    def test_opposite_quaternions_merge(self):
        sigma = IDENTITY_PERMUTATION
        a = self._candidate(sigma, UnitQuaternion.normalized(0, 1, 0, 0), 1e-12)
        b = self._candidate(sigma, UnitQuaternion.normalized(0, -1, 0, 0), 5e-12)
        merged = dedupe_rotations([a, b])
        assert len(merged) == 1
        assert merged[0].residual == 1e-12

    def test_sign_family_collapses_to_two_matrices(self):
        # four unit-quaternion solutions (+-1,0,0,0), (0,+-1,0,0) give just
        # two distinct rotation matrices
        sigma = Permutation4((1, 3, 2, 4))
        quats = [
            UnitQuaternion.normalized(1, 0, 0, 0),
            UnitQuaternion.normalized(-1, 0, 0, 0),
            UnitQuaternion.normalized(0, 1, 0, 0),
            UnitQuaternion.normalized(0, -1, 0, 0),
        ]
        merged = dedupe_rotations([self._candidate(sigma, q, 0.0) for q in quats])
        assert len(merged) == 2
        matrices = sorted(m.matrix[1, 1] for m in merged)
        assert matrices == [-1.0, 1.0]

    def test_distant_rotations_are_kept(self):
        sigma = IDENTITY_PERMUTATION
        a = self._candidate(sigma, UnitQuaternion.normalized(1, 0, 0, 0), 0.0)
        b = self._candidate(sigma, UnitQuaternion.normalized(0.96, 0.28, 0, 0), 0.0)
        assert len(dedupe_rotations([a, b])) == 2

    def test_stacked_distances_decide_like_the_pairwise_loop(self):
        def pairwise(candidates, dedupe_tol):
            merged = []
            for images in sorted({c.sigma.images for c in candidates}):
                kept = []
                for cand in sorted((c for c in candidates if c.sigma.images == images), key=lambda c: c.residual):
                    if all(np.linalg.norm(cand.matrix - k.matrix) >= dedupe_tol for k in kept):
                        kept.append(cand)
                merged.extend(kept)
            return merged

        def turned(matrix, axis, distance):
            # a turn by t moves a rotation by 2 sqrt(2) sin(t/2) in Frobenius norm
            q = quat_from_axis_angle(axis / np.linalg.norm(axis), 2.0 * math.asin(distance / (2.0 * math.sqrt(2.0))))
            return quat_to_matrix(q) @ matrix

        rng = np.random.default_rng(42)
        sigmas = [IDENTITY_PERMUTATION, Permutation4((2, 1, 3, 4))]
        distances = []
        for _ in range(100):
            base = quat_to_matrix(random_unit_quaternion(rng))
            matrices = [base]
            for _ in range(int(rng.integers(2, 7))):
                distance = float(rng.choice([0.99e-6, 1.01e-6]))
                matrices.append(turned(matrices[int(rng.integers(len(matrices)))], rng.standard_normal(3), distance))
            candidates = [
                SolveCandidate(sigmas[int(rng.integers(2))], UnitQuaternion(1.0, 0.0, 0.0, 0.0), m, residual, False)
                for m, residual in zip(matrices, rng.uniform(0.0, 1e-9, len(matrices)).tolist())
            ]
            got = dedupe_rotations(candidates)
            assert [id(c) for c in got] == [id(c) for c in pairwise(candidates, 1e-6)]
            distances.extend(np.linalg.norm(a.matrix - b.matrix) for a in candidates for b in candidates)
        assert any(0.989e-6 < d < 1e-6 for d in distances)
        assert any(1e-6 <= d < 1.011e-6 for d in distances)

    def test_same_rotation_under_different_relabelings_is_kept(self):
        a = self._candidate(IDENTITY_PERMUTATION, UnitQuaternion.normalized(0, 1, 0, 0), 0.0)
        b = self._candidate(Permutation4((2, 1, 3, 4)), UnitQuaternion.normalized(0, 1, 0, 0), 0.0)
        assert len(dedupe_rotations([a, b])) == 2
