import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tetrot import (
    ALL_PERMUTATIONS,
    CLASSIFICATION_CELLS,
    DEFAULT_TOLERANCES,
    DegenerateTetrahedronError,
    DegenerateViewError,
    IDENTITY_PERMUTATION,
    Permutation4,
    ProjectionQuad,
    SolveCandidate,
    Tetrahedron,
    Tolerances,
    UnitQuaternion,
    apply,
    dedupe_rotations,
    labeled_solve,
    numeric_rank,
    project,
    prune_permutations,
    quat_from_axis_angle,
    quat_to_matrix,
    reconstruct_geometric,
    sample_cell_rotation,
    sample_tetrahedron,
    unlabeled_solve,
)
from tetrot import solver
from tetrot.instances import four_cycle_instance, norm_prune_instance, planar_instance
from tetrot.solver import _circumcircle, _ellipse_geometry, _unit_conic

from conftest import (
    near_edge_on,
    random_full_dim_tetrahedron,
    random_unit_quaternion,
    shadow_miss,
    tilted_near_plane,
    unit_normal,
)


def relabeled(quad: ProjectionQuad, sigma: Permutation4) -> ProjectionQuad:
    return ProjectionQuad(quad.points[list(sigma.zero_based())])


def labeled_shadow(tetra: Tetrahedron, q: UnitQuaternion) -> ProjectionQuad:
    return ProjectionQuad(apply(q, tetra.vertices)[:, :2])


def circumcircle(p, q, r):
    """Center, radius and |(q - p) x (r - p)| of the route's circle through three points, at the default rank_rel."""
    center, radius, area = _circumcircle(*(np.asarray(x, dtype=float).tolist() for x in (p, q, r)),
                                         DEFAULT_TOLERANCES.rank_rel)
    return np.array(center), radius, area


class TestCircumcircle:
    def test_unit_circle_in_the_plane(self):
        center, radius, area = circumcircle([1, 0, 0], [0, 1, 0], [-1, 0, 0])
        np.testing.assert_allclose(center, [0, 0, 0], atol=1e-14)
        assert radius == pytest.approx(1.0)
        assert area == 2.0

    def test_scaling(self):
        _, radius, area = circumcircle([2, 0, 0], [0, 2, 0], [-2, 0, 0])
        assert radius == pytest.approx(2.0)
        assert area == 8.0

    def test_recovers_a_random_space_circle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = random_unit_quaternion(rng)
            r = quat_to_matrix(q)
            center = rng.standard_normal(3)
            radius = rng.uniform(0.5, 3.0)
            angles = np.sort(rng.uniform(0, 2 * math.pi, size=3))
            pts = [center + radius * (r @ [math.cos(t), math.sin(t), 0.0]) for t in angles]
            got_center, got_radius, got_area = circumcircle(*pts)
            np.testing.assert_allclose(got_center, center, atol=1e-8)
            assert got_radius == pytest.approx(radius, abs=1e-8)
            assert got_area == pytest.approx(np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])), rel=1e-14)

    def test_collinear_points_rejected(self):
        # coincident points have both edges and the area zero, so the area test holds at 0 <= 0
        for points in ([[0, 0, 0], [1, 1, 1], [2, 2, 2]], [[1, 2, 3]] * 3, [[0, 0, 0]] * 3, [[-1e150, 1e-300, 5.0]] * 3):
            with pytest.raises(DegenerateTetrahedronError, match="^circumcircle needs three non-collinear points$") as info:
                circumcircle(*points)
            assert type(info.value) is DegenerateTetrahedronError

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 3e-9])
    def test_nearly_collinear_points(self, eps):
        # the circle through (0, eps), (-1, 0) and (1, 0) has radius (1 + eps^2) / (2 eps)
        center, radius, _ = circumcircle([0, eps, 0], [-1, 0, 0], [1, 0, 0])
        expected = (1.0 + eps * eps) / (2.0 * eps)
        assert radius == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(center, [0.0, eps - expected, 0.0], rtol=0, atol=1e-12 * expected)

    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e150])
    def test_no_overflow_at_admitted_magnitudes(self, scale):
        rng = np.random.default_rng(41)
        for _ in range(20):
            pts = rng.standard_normal((3, 3))
            pts = np.clip(pts * (scale / np.abs(pts).max()), -scale, scale)
            center, radius, _ = circumcircle(*pts)
            dist = [math.hypot(*((center - p) / scale)) for p in pts]
            assert max(dist) - min(dist) <= 1e-12 * max(dist)
            assert abs(radius / scale - dist[0]) <= 1e-12 * dist[0]


def in_unit_frame(conic, mx, my, w):
    """The unit coefficient vector of a conic after X = mx + w x, Y = my + w y."""
    a, b, c, d, e, f = conic
    mapped = np.array([
        a * w * w,
        b * w * w,
        c * w * w,
        w * (2 * a * mx + b * my + d),
        w * (2 * c * my + b * mx + e),
        a * mx * mx + b * mx * my + c * my * my + d * mx + e * my + f,
    ])
    return mapped / np.linalg.norm(mapped)


def assert_same_conic(got, expected, atol):
    """Unit coefficient vectors equal up to the sign, which a null vector leaves open."""
    got = np.array(got)
    np.testing.assert_allclose(got * np.sign(got @ expected), expected, rtol=0, atol=atol)


class TestUnitConic:
    RANK_REL = DEFAULT_TOLERANCES.rank_rel
    SHIFTED_ELLIPSE = [(3 * math.cos(t) + 1, 2 * math.sin(t) - 4) for t in (0.0, 0.9, 1.7, 2.8, 4.0, 5.5)]

    def test_unit_circle(self):
        pts = [(math.cos(t), math.sin(t)) for t in (0.0, 1.0, 2.0, 2.5, 4.0, 5.0)]
        mx, my, w, coefficients = _unit_conic(pts, self.RANK_REL)
        mean = np.mean(pts, axis=0)
        np.testing.assert_allclose([mx, my], mean, rtol=0, atol=1e-15)
        assert w == pytest.approx(math.sqrt(np.mean(np.sum((np.array(pts) - mean) ** 2, axis=1))), rel=1e-15)
        assert np.linalg.norm(coefficients) == pytest.approx(1.0, rel=1e-15)
        assert_same_conic(coefficients, in_unit_frame([1, 0, 1, 0, 0, -1], mx, my, w), atol=1e-10)

    def test_axis_aligned_ellipse(self):
        pts = [(2 * math.cos(t), math.sin(t)) for t in (0.0, 0.9, 1.7, 2.8, 4.0, 5.5)]
        mx, my, w, coefficients = _unit_conic(pts, self.RANK_REL)
        assert_same_conic(coefficients, in_unit_frame([1, 0, 4, 0, 0, -4], mx, my, w), atol=1e-10)

    def test_exact_points_have_tiny_residual(self):
        rng = np.random.default_rng(32)
        pts = np.array([(3 * math.cos(t) + 1, 2 * math.sin(t) - 4) for t in rng.uniform(0, 2 * math.pi, 8)])
        mx, my, w, (a, b, c, d, e, f) = _unit_conic(pts.tolist(), self.RANK_REL)
        xs, ys = (pts[:, 0] - mx) / w, (pts[:, 1] - my) / w
        residual = a * xs**2 + b * xs * ys + c * ys**2 + d * xs + e * ys + f
        assert np.max(np.abs(residual)) <= 1e-10

    @pytest.mark.parametrize("pts", [
        # on one line: that line paired with any other passes through them
        [(t, 2 * t + 1) for t in range(5)],
        # four points: the design matrix has four rows
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        # every pair of lines y = 0 and one through (0, 1) passes through them: rank 4
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)],
    ], ids=["collinear", "four-points", "four-on-a-line"])
    def test_rank_below_five_rejected(self, pts):
        with pytest.raises(DegenerateViewError, match="^points in degenerate position, conic is not unique$"):
            _unit_conic(pts, self.RANK_REL)

    @pytest.mark.parametrize("scale", [1e80, 1e140, 1e150])
    def test_scaling_moves_only_the_frame(self, scale):
        # points X = s x have the mean s m and the spread s w, and the same unit-frame conic
        mx, my, w, coefficients = _unit_conic(self.SHIFTED_ELLIPSE, self.RANK_REL)
        scaled_pts = [(x * scale, y * scale) for x, y in self.SHIFTED_ELLIPSE]
        smx, smy, sw, scaled = _unit_conic(scaled_pts, self.RANK_REL)
        np.testing.assert_allclose([smx / scale, smy / scale, sw / scale], [mx, my, w], rtol=1e-14, atol=0)
        assert_same_conic(scaled, np.array(coefficients), atol=1e-12)


class TestEllipseGeometry:
    """The conic from _unit_conic is a null vector of either sign, so its
    geometry must not depend on the sign; nor on the overall scale."""

    # center, semi-axes major >= minor, angle of the major axis, scale of the coefficients
    ELLIPSES = {
        "major-along-x": ((0.0, 0.0), 2.0, 1.0, 0.0, 1.0),
        "major-along-y": ((0.0, 0.0), 2.0, 1.0, math.pi / 2, 1.0),
        "shifted-tilted": ((1.0, -4.0), 3.0, 2.0, 0.7, 1.0),
        "shifted-tilted-tiny": ((1.0, -4.0), 3.0, 2.0, 0.7, 1e-100),
        "shifted-tilted-huge": ((1.0, -4.0), 3.0, 2.0, 0.7, 1e100),
    }

    @staticmethod
    def coefficients(center, major, minor, angle, scale):
        ct, st = math.cos(angle), math.sin(angle)
        q11 = ct * ct / major**2 + st * st / minor**2
        q12 = ct * st * (1 / major**2 - 1 / minor**2)
        q22 = st * st / major**2 + ct * ct / minor**2
        cx, cy = center
        conic = [q11, 2 * q12, q22, -2 * (q11 * cx + q12 * cy), -2 * (q12 * cx + q22 * cy),
                 q11 * cx * cx + 2 * q12 * cx * cy + q22 * cy * cy - 1.0]
        return [scale * x for x in conic]

    @pytest.mark.parametrize("name", list(ELLIPSES))
    def test_sign_and_scale_leave_the_geometry(self, name):
        center, major, minor, angle, scale = self.ELLIPSES[name]
        conic = self.coefficients(center, major, minor, angle, scale)
        got = _ellipse_geometry(conic)
        assert repr(_ellipse_geometry([-x for x in conic])) == repr(got)
        (cx, cy), tilt, (ux, uy) = got
        np.testing.assert_allclose([cx, cy], center, rtol=1e-12, atol=1e-12)
        assert tilt == pytest.approx(minor / major, rel=1e-12)
        assert math.hypot(ux, uy) == pytest.approx(1.0, rel=1e-15)
        assert abs(ux * math.sin(angle) - uy * math.cos(angle)) <= 1e-12

    @pytest.mark.parametrize("conic", [(1.0, 0.0, 1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)],
                             ids=["no-real-point", "one-point"])
    def test_a_conic_without_real_ellipse_points_is_refused(self, conic):
        # x^2 + y^2 + 1 = 0 and x^2 + y^2 = 0 pass the edge-on test as circles, at level -1 and 0
        for coefficients in (list(conic), [-x for x in conic]):
            with pytest.raises(DegenerateViewError, match="^conic has no real ellipse points$") as info:
                _ellipse_geometry(coefficients)
            assert type(info.value) is DegenerateViewError


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


def singular_tetrahedron(values):
    """Centred tetrahedron whose first three vertices have singular values
    `values` and right singular vectors x, y, z: its own shadow is fitted
    exactly by the identity at any rank."""
    u = np.linalg.qr(np.random.default_rng(61).standard_normal((3, 3)))[0]
    p3 = u * values
    return Tetrahedron(np.vstack([p3, -p3.sum(axis=0)]))


class TestOneRankRule:
    """Every rank decision on P3 flips at the same cut, rank_rel times s[0]."""

    @pytest.mark.parametrize("rank_rel", [DEFAULT_TOLERANCES.rank_rel, 1e-3])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_third_singular_value_at_the_cut(self, rank_rel, factor):
        tol = Tolerances(rank_rel=rank_rel)
        tetra = singular_tetrahedron([1.0, 0.5, factor * rank_rel])
        quad = project(tetra)
        full = factor > 1.0
        assert tetra.full_dimensional(rank_rel) is full
        assert numeric_rank(tetra.vertices[:3], tol) == (3 if full else 2)
        candidates = labeled_solve(tetra, quad, tol)
        assert candidates
        assert all(c.planar_ambiguous is not full for c in candidates)
        if full:
            reconstruct_geometric(tetra, quad, tol)
        else:
            with pytest.raises(DegenerateTetrahedronError):
                reconstruct_geometric(tetra, quad, tol)

    @pytest.mark.parametrize("rank_rel", [DEFAULT_TOLERANCES.rank_rel, 1e-3])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_second_singular_value_at_the_cut(self, rank_rel, factor):
        tol = Tolerances(rank_rel=rank_rel)
        tetra = singular_tetrahedron([1.0, factor * rank_rel, 0.0])
        quad = project(tetra)
        spans_a_plane = factor > 1.0
        assert not tetra.full_dimensional(rank_rel)
        assert numeric_rank(tetra.vertices[:3], tol) == (2 if spans_a_plane else 1)
        with pytest.raises(DegenerateTetrahedronError):
            reconstruct_geometric(tetra, quad, tol)
        if spans_a_plane:
            candidates = labeled_solve(tetra, quad, tol)
            assert candidates
            assert all(c.planar_ambiguous for c in candidates)
        else:
            with pytest.raises(DegenerateTetrahedronError):
                labeled_solve(tetra, quad, tol)
            with pytest.raises(DegenerateTetrahedronError):
                unlabeled_solve(tetra, quad, tol)


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
            if abs((quat_to_matrix(q) @ unit_normal(*tetra.vertices[:3]))[2]) < 0.25:
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
        # vertices 1..3 in a vertical plane project onto a line: their circle is seen edge on
        tetra = Tetrahedron([[0, 0, 0], [1, 0, 1], [2, 0, -1], [0, 3, 0]])
        with pytest.raises(DegenerateViewError, match="^projected circumcircle is seen edge on$"):
            reconstruct_geometric(tetra, project(tetra))

    def test_edge_on_view_rejected(self):
        # circumcircle plane tilted within 1e-7 of vertical
        theta = math.pi / 2 - 1e-7
        c, s = math.cos(theta), math.sin(theta)
        tilt = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        base = np.array([[1.0, 0, 0], [-0.6, 0.9, 0], [-0.5, -1.1, 0], [0.1, 0.2, 1.5]])
        tetra = Tetrahedron(base @ tilt.T)
        with pytest.raises(DegenerateViewError):
            reconstruct_geometric(tetra, project(tetra))

    @staticmethod
    def near_midpoint(eps):
        """Vertex 1 within eps of the midpoint of vertices 2 and 3, on a circle of radius about 1/(2 eps)."""
        return Tetrahedron([[0, eps, 0.3], [-1, 0, 0.3], [1, 0, 0.3], [0, 0, -0.9]])

    @pytest.mark.parametrize("eps", [1e-5, 1e-7])
    def test_vertex_at_its_opposite_edge_midpoint_rejected(self, eps):
        tetra = self.near_midpoint(eps)
        for q in (UnitQuaternion(1.0, 0.0, 0.0, 0.0), random_unit_quaternion(np.random.default_rng(43))):
            message = "^vertex coincides with the opposite edge midpoint$"
            with pytest.raises(DegenerateTetrahedronError, match=message):
                reconstruct_geometric(tetra, labeled_shadow(tetra, q))

    def test_six_points_on_a_short_arc_rejected_by_the_conic_rank(self):
        tetra = self.near_midpoint(1e-4)
        for q in (UnitQuaternion(1.0, 0.0, 0.0, 0.0), random_unit_quaternion(np.random.default_rng(47))):
            message = "^" + re.escape("points in degenerate position, conic is not unique") + "$"
            with pytest.raises(DegenerateViewError, match=message):
                reconstruct_geometric(tetra, labeled_shadow(tetra, q))

    @staticmethod
    def on_a_line_at_the_circle_cut():
        """A full-dimensional tetrahedron whose first three vertices are collinear at the circumcircle's cut.

        s[2] / s[0] of P3 is just above rank_rel; the triangle's area over
        its longest edge squared, the circumcircle's cut, is just below.
        """
        vertices = """
            -0x1.1ebb8d107ac14p+0 0x1.f74872ccc9a2cp-14 0x1.a41d6ec327713p-30
            0x1.20e1104d311a9p+0 0x1.f746bb8fe5f0ap-14 0x1.816dd49e28c5dp-30
            -0x1.0f1c7927e3234p-5 0x1.f747e0c994e09p-14 -0x1.167a0e5a03c6fp-31
            0x1.94d823222ff28p-6 -0x1.7975c3c9911d0p-12 -0x1.4d271e1a2729cp-29
            """
        return Tetrahedron(np.reshape([float.fromhex(token) for token in vertices.split()], (4, 3)))

    def test_first_three_vertices_on_a_line_at_the_circle_cut_rejected(self):
        tetra = self.on_a_line_at_the_circle_cut()
        assert tetra.full_dimensional()
        with pytest.raises(DegenerateTetrahedronError, match="^circumcircle needs three non-collinear points$"):
            reconstruct_geometric(tetra, project(tetra))

    def test_near_edge_on_views_raise_only_documented_errors(self):
        # circumcircle planes within 1e-12 to 1e-2 of vertical, where the
        # fitted ellipse degenerates to a segment
        rng = np.random.default_rng(49)
        raised = set()
        for _ in range(300):
            tetra = near_edge_on(rng, rng.uniform(-12, -2))
            try:
                assert len(reconstruct_geometric(tetra, project(tetra))) <= 1
            except DegenerateViewError as exc:
                raised.add(str(exc))
        assert "projected circumcircle is seen edge on" in raised
        assert raised <= {
            "points in degenerate position, conic is not unique",
            "projected circumcircle is seen edge on",
            "conic has no real ellipse points",
        }

    def test_views_below_the_edge_on_cut_get_the_edge_on_error(self):
        # a true circumcircle tilt of at most 1e-7, ten times below the cut:
        # the six points are an affine image of concyclic points, so any
        # other view error would describe rounding, not the view
        rng = np.random.default_rng(59)
        for _ in range(400):
            tetra = near_edge_on(rng, rng.uniform(-12, -7))
            p0, p1, p2 = tetra.vertices[:3]
            normal = np.cross(p1 - p0, p2 - p0)
            assert abs(normal[2]) <= 1e-7 * np.linalg.norm(normal)
            with pytest.raises(DegenerateViewError, match="^projected circumcircle is seen edge on$"):
                reconstruct_geometric(tetra, project(tetra))

    # Near-edge-on views, as float.hex, where an LU solve of the ellipse's
    # center system meets an exact zero pivot or eigh gives its smaller
    # eigenvalue as exactly 0, though the discriminant is negative
    EXACTLY_DEGENERATE_VIEWS = {
        "zero-eigenvalue-a": """
            -0x1.decd7508d318bp-2 -0x1.9127ed11edbddp-2 -0x1.7b7f916524573p-3
            -0x1.0564e4f2d1235p-4 -0x1.b6021f238b311p-5 0x1.cdc1b1ca35255p+0
            -0x1.f3ec0e41643eap-4 -0x1.a2d9c01c1c323p-4 -0x1.3ff084703a7f8p-2
            0x1.be20fcd200368p-3 -0x1.74bc0d8196f3dp-1 -0x1.f27b561c411a2p-1
            """,
        "zero-eigenvalue-b": """
            -0x1.a28e61df04b99p-4 -0x1.4b3b6a7d17b5cp-2 0x1.031f7a0eccc87p+0
            -0x1.f5c4909174f1dp-4 -0x1.8d154d3c65409p-2 -0x1.7ad65f45d4062p+0
            -0x1.034538692aee5p-1 -0x1.9a5b546f4b9c6p+0 0x1.6d1bd9f2beaa3p+0
            0x1.5fd2d9246df93p-1 -0x1.2504280b1beb7p-1 -0x1.362f900527741p+0
            """,
        "singular-center": """
            -0x1.11e9a3e3d7915p-1 -0x1.1fe8c975a3c18p+0 -0x1.46317048e3d90p-1
            0x1.c199457d112e3p-2 0x1.d892a027f008cp-1 0x1.83b10d72f23cep-4
            0x1.7dbc534007d44p-4 0x1.913de8a2723d7p-3 -0x1.0e5a80079502ep+0
            0x1.9db4ba30e86d6p-1 0x1.62f6212713fe4p-2 0x1.e9eba4288adb9p-2
            """,
    }

    @pytest.mark.parametrize("name", sorted(EXACTLY_DEGENERATE_VIEWS))
    def test_an_exactly_degenerate_ellipse_raises_a_view_error(self, name):
        values = [float.fromhex(token) for token in self.EXACTLY_DEGENERATE_VIEWS[name].split()]
        tetra = Tetrahedron(np.reshape(values, (4, 3)))
        with pytest.raises(DegenerateViewError):
            reconstruct_geometric(tetra, project(tetra))

    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e150])
    def test_no_overflow_at_admitted_magnitudes(self, scale):
        rng = np.random.default_rng(53)
        documented = (DegenerateTetrahedronError, DegenerateViewError)
        for _ in range(20):
            vertices = rng.standard_normal((4, 3))
            vertices -= vertices.mean(axis=0)
            tetra = Tetrahedron(np.clip(vertices * (scale / np.abs(vertices).max()), -scale, scale))
            shadow = apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]
            quad = ProjectionQuad(np.clip(shadow, -scale, scale))
            try:
                assert isinstance(reconstruct_geometric(tetra, quad), list)
            except documented:
                pass


REGULAR = Tetrahedron([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
# a shadow of REGULAR that both routes solve
REGULAR_VIEW = labeled_shadow(REGULAR, UnitQuaternion.normalized(0.9, 0.1, 0.2, 0.3))
RANK_ONE = Tetrahedron([[1, 0, 0], [2, 0, 0], [3, 0, 0], [-6, 0, 0]])


def thin_view(height):
    """A view whose first three points are a triangle of base 2 and the given height."""
    return ProjectionQuad([[-1, 0], [1, 0], [0, height], [0.2, -0.5]])


class TestRefusalNamesTheInputAtFault:
    """Each refusal message comes with one class: DegenerateTetrahedronError for a fault of T,
    DegenerateViewError for a fault of U.  A T case takes the view REGULAR_VIEW, a U case the
    tetrahedron REGULAR, so in each case only the one input is degenerate."""

    # name: (tetrahedron, message)
    TETRAHEDRA = {
        "line": (RANK_ONE, "vertices span less than a plane"),
        "plane": (planar_instance().tetrahedron, "geometric reconstruction needs a full-dimensional tetrahedron"),
        "line-at-the-circle-cut": (TestReconstructGeometric.on_a_line_at_the_circle_cut(),
                                   "circumcircle needs three non-collinear points"),
        "vertex-at-its-edge-midpoint": (TestReconstructGeometric.near_midpoint(1e-7),
                                        "vertex coincides with the opposite edge midpoint"),
    }
    # name: (view, message)
    VIEWS = {
        # the first three points span no triangle, or one whose area is at most
        # _EDGE_ON_TILT times that of the first three vertices: the circle is seen edge on
        "coincident": (ProjectionQuad([[1.5, -2.0]] * 4), "projected circumcircle is seen edge on"),
        "collinear": (thin_view(0.0), "projected circumcircle is seen edge on"),
        "edge-on": (thin_view(1e-7), "projected circumcircle is seen edge on"),
        "thin-2.5e-9": (thin_view(2.5e-9), "projected circumcircle is seen edge on"),
        # point 1 within 1e-9 of the midpoint of points 2 and 3: a chord collapses, but the
        # view is as thin as that, and edge on is tested first
        "chord-collapse-7e-10": (ProjectionQuad([[0, 7e-10], [-1, 0], [1, 0], [0.3, 0.7]]),
                                 "projected circumcircle is seen edge on"),
        "chord-collapse-1e-9": (ProjectionQuad([[0, 1e-9], [-1, 0], [1, 0], [0.3, 0.7]]),
                                "projected circumcircle is seen edge on"),
        # views 100 times wider than T pass the area test: point 1 within 5e-8 of the
        # midpoint of points 2 and 3, and thin triangles whose six points fix no one
        # conic, or an ellipse below the cut
        "chord-collapse": (ProjectionQuad([[0, 5e-8], [-100, 0], [100, 0], [30, 70]]),
                           "projected chord collapses to a point"),
        "conic-not-unique": (ProjectionQuad([[-100, 0], [100, 0], [500, 2.5e-7], [20, -50]]),
                             "points in degenerate position, conic is not unique"),
        "edge-on-at-the-fit": (ProjectionQuad([[-100, 0], [100, 0], [500, 1e-5], [20, -50]]),
                               "projected circumcircle is seen edge on"),
    }
    # (class, message): why no case above raises the refusal through a solve
    UNREACHED = {
        ("DegenerateViewError", "conic has no real ellipse points"):
            "six points of a rank-5 design matrix lie on its conic, so an ellipse through them has "
            "real points; the test keeps rounding from taking the lift's square roots of negatives",
    }

    def test_the_regular_pair_is_solved_by_both_routes(self):
        assert len(labeled_solve(REGULAR, REGULAR_VIEW)) == 1
        assert len(reconstruct_geometric(REGULAR, REGULAR_VIEW)) == 1

    @pytest.mark.parametrize("name", sorted(TETRAHEDRA))
    def test_a_fault_of_the_tetrahedron(self, name):
        tetra, message = self.TETRAHEDRA[name]
        solve = labeled_solve if name == "line" else reconstruct_geometric
        with pytest.raises(DegenerateTetrahedronError, match=f"^{message}$") as info:
            solve(tetra, REGULAR_VIEW)
        assert type(info.value) is DegenerateTetrahedronError

    @pytest.mark.parametrize("name", sorted(VIEWS))
    def test_a_fault_of_the_view(self, name):
        quad, message = self.VIEWS[name]
        with pytest.raises(DegenerateViewError, match=f"^{message}$") as info:
            reconstruct_geometric(REGULAR, quad)
        assert type(info.value) is DegenerateViewError

    @staticmethod
    def refusals() -> set[tuple[str, str]]:
        """(class, message) of every raise of the two errors in solver.py, read with ast."""
        found = set()
        for node in ast.walk(ast.parse(Path(solver.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                name = node.exc.func.id
                if name in ("DegenerateTetrahedronError", "DegenerateViewError"):
                    # a message built at run time could not be matched to a case
                    [message] = node.exc.args
                    assert isinstance(message, ast.Constant) and isinstance(message.value, str), ast.dump(message)
                    found.add((name, message.value))
        return found

    def test_every_refusal_has_a_case_or_a_reason(self):
        cases = {("DegenerateTetrahedronError", message) for _, message in self.TETRAHEDRA.values()}
        cases |= {("DegenerateViewError", message) for _, message in self.VIEWS.values()}
        refusals = self.refusals()
        assert len(refusals) == 8  # four faults of T and four of U
        assert refusals - cases - set(self.UNREACHED) == set()

    @pytest.mark.parametrize("refusal", sorted(UNREACHED))
    def test_each_unreached_refusal_is_still_raised_and_has_no_case(self, refusal):
        # an entry whose message a case now raises, or that the solver no longer raises, is stale and goes
        cases = {message for _, message in [*self.TETRAHEDRA.values(), *self.VIEWS.values()]}
        assert refusal in self.refusals()
        assert refusal[1] not in cases

    def test_both_routes_refuse_a_singular_tetrahedron_as_its_fault(self):
        # with their own messages, as TestOneRankRule checks near the rank cut
        for solve in (labeled_solve, unlabeled_solve, reconstruct_geometric):
            with pytest.raises(DegenerateTetrahedronError):
                solve(RANK_ONE, REGULAR_VIEW)

    def test_the_solver_exports_two_errors(self):
        errors = {name for name in solver.__all__ if name.endswith("Error")}
        assert errors == {"DegenerateTetrahedronError", "DegenerateViewError"}
        assert not issubclass(DegenerateTetrahedronError, DegenerateViewError)
        assert not issubclass(DegenerateViewError, DegenerateTetrahedronError)


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
                rotated = apply(cand.rotation, tetra.vertices)
                assert shadow_miss(rotated, quad.points[list(cand.sigma.zero_based())]) <= 1e-7

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


    # a plane of size 1e6 tilted by 1.5e-7, and one of size 1e5 tilted by 5e-7: c^2 of the tilt
    # is within bound of zero, so the fit starts in the plane, and Gauss-Newton cannot leave it
    @pytest.mark.parametrize("size, tilt", [(1e6, 1.5e-7), (1e5, 5e-7)])
    def test_a_rejected_in_plane_start_is_completed(self, size, tilt):
        tetra = Tetrahedron(np.array([[1.0, 0.2, 0.0], [-0.3, 1.1, 0.0], [-0.9, -0.6, 0.0], [0.2, -0.7, 0.0]]) * size)
        q = quat_from_axis_angle([1.0, 0.0, 0.0], tilt)
        quad = labeled_shadow(tetra, q)
        for candidates in (unlabeled_solve(tetra, quad), labeled_solve(tetra, quad)):
            identity = [c for c in candidates if c.sigma == IDENTITY_PERMUTATION]
            assert identity and all(c.planar_ambiguous for c in identity)
            assert min(np.linalg.norm(c.matrix - quat_to_matrix(q)) for c in identity) < solver.DEDUPE_DISTANCE

    def test_exact_near_planar_shadows_keep_a_candidate(self):
        # drawn before any solve; without the completion of rejected in-plane starts, 27 of these are lost
        rng = np.random.default_rng(2026)
        instances = [tilted_near_plane(rng) for _ in range(1000)]
        lost = 0
        for tetra, truth in instances:
            candidates = unlabeled_solve(tetra, ProjectionQuad((tetra.vertices @ truth.T)[:, :2]))
            lost += not any(c.sigma == IDENTITY_PERMUTATION for c in candidates)
        assert lost == 0


@pytest.fixture(scope="module")
def related_instances():
    """Drawn before any solve and kept whatever the solver makes of them: generic tetrahedra
    with the shadow of a random rotation, null-space samples of every cell with their own
    shadow, and tilted near-planar sets with theirs; for each, a move of exactly geom_abs in a
    random direction at every point, a vertical turn and a relabeling of the points."""
    rng = np.random.default_rng(97)
    out = []
    for _ in range(120):
        tetra = random_full_dim_tetrahedron(rng)
        out.append((tetra, apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]))
    for cell in CLASSIFICATION_CELLS:
        for _ in range(3):
            tetra = sample_tetrahedron(sample_cell_rotation(cell, rng), cell.perm_class, rng)
            out.append((tetra, project(tetra).points))
    for _ in range(40):
        tetra, truth = tilted_near_plane(rng)
        out.append((tetra, (tetra.vertices @ truth.T)[:, :2]))
    theta = rng.uniform(0.0, 2.0 * math.pi, (len(out), 4))
    moves = DEFAULT_TOLERANCES.geom_abs * np.stack([np.cos(theta), np.sin(theta)], axis=2)
    turns = rng.uniform(0.0, 2.0 * math.pi, len(out))
    relabelings = [ALL_PERMUTATIONS[row] for row in rng.integers(24, size=len(out))]
    return list(zip(out, moves, turns, relabelings))


class TestMetamorphicRelations:
    """A map of the problem that carries every compatible rotation to one maps the candidates.

    Turning the shadow about the vertical turns each candidate with it, relabeling the
    shadow's points relabels the candidates, and reflecting the tetrahedron and its shadow
    through a vertical plane reflects them; at each point moved by f geom_abs.  The
    candidates of the mapped shadow must be the mapped candidates, one to one, each the same
    rotation as its image by the one rule, _apart; a refusal must be the same refusal."""

    @staticmethod
    def outcome(tetra, points):
        try:
            return [(c.sigma.images, c.matrix) for c in unlabeled_solve(tetra, ProjectionQuad(points))]
        except ValueError as exc:
            return type(exc)

    @staticmethod
    def mapped(tetra, points, turn, sigma, relation):
        """The mapped problem, and the map of one candidate (images, matrix)."""
        if relation == "vertical turn":
            c, s = math.cos(turn), math.sin(turn)
            spin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            return tetra, points @ spin[:2, :2].T, lambda images, m: (images, spin @ m)
        if relation == "relabeling":
            # point j of the relabeled shadow is point sigma(j): the candidate of tau becomes sigma^-1 tau
            back = {image: i for i, image in enumerate(sigma.images, 1)}
            shuffled = points[list(sigma.zero_based())]
            return tetra, shuffled, lambda images, m: (tuple(back[i] for i in images), m)
        mirror = np.diag([-1.0, 1.0, 1.0])
        return Tetrahedron(tetra.vertices @ mirror), points @ mirror[:2, :2], lambda images, m: (images, mirror @ m @ mirror)

    @pytest.mark.parametrize("relation", ["vertical turn", "relabeling", "vertical mirror"])
    @pytest.mark.parametrize("f", [0.0, 0.5])
    def test_mapped_shadows_have_the_mapped_candidates(self, related_instances, f, relation):
        broken = []
        for index, ((tetra, shadow), move, turn, sigma) in enumerate(related_instances):
            points = shadow + f * move
            tetra2, points2, carry = self.mapped(tetra, points, turn, sigma, relation)
            want, got = self.outcome(tetra, points), self.outcome(tetra2, points2)
            if isinstance(want, type) or isinstance(got, type):
                if want is not got:
                    broken.append(index)
                continue
            unmatched = [(images, m.ravel().tolist()) for images, m in got]
            for images, m in (carry(*cand) for cand in want):
                entries = m.ravel().tolist()
                match = next((j for j, c in enumerate(unmatched) if c[0] == images and not solver._apart(entries, c[1])), None)
                if match is None:
                    break
                del unmatched[match]
            if len(want) != len(got) or unmatched:
                broken.append(index)
        assert len(related_instances) == 223
        assert broken == []


class TestScreen:
    """The I - A A^T screen of _starts, which drops a branch further than bound from the form
    c c^T that rows of a rotation give, keeps the true relabeling's branch of every shadow whose
    points are all within geom_abs of the true shadow."""

    @pytest.mark.parametrize("f", [0.5, 0.9, 1.0])
    def test_the_true_branch_passes_the_screen(self, related_instances, f, monkeypatch):
        calls = []
        starts = solver._starts

        def recorded(*args):
            owners, got = starts(*args)
            calls.append(owners)
            return owners, got

        monkeypatch.setattr(solver, "_starts", recorded)
        dropped, screened = [], 0
        for index, ((tetra, shadow), move, _, _) in enumerate(related_instances):
            calls.clear()
            try:
                unlabeled_solve(tetra, ProjectionQuad(shadow + f * move))
            except DegenerateTetrahedronError:
                continue
            # the points are within geom_abs of the identity's shadow, so the norm test keeps row 0
            screened += 1
            if 0 not in calls[0]:  # the first call screens the fitted rows; a second completes
                dropped.append(index)
        assert screened >= 200
        assert dropped == []


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

    def test_the_geometric_route_merges_its_two_lifts_of_a_level_circle(self, monkeypatch):
        # the first three vertices share one z, so the circle through them is level;
        # after a vertical-axis turn its shadow is a circle, and the two lifts agree
        # up to rounding
        tetra = Tetrahedron([[1.0, 0.0, 0.5], [-0.5, 0.8, 0.5], [-0.3, -0.9, 0.5], [0.2, 0.1, -1.5]])
        q = quat_from_axis_angle([0.0, 0.0, 1.0], 0.7)
        merges = []
        original = solver.dedupe_rotations
        monkeypatch.setattr(
            solver, "dedupe_rotations",
            lambda candidates: merges.append((candidates, original(candidates))) or merges[-1][1],
        )
        (cand,) = reconstruct_geometric(tetra, labeled_shadow(tetra, q))
        ((lifts, kept),) = merges
        assert len(lifts) == 2 and np.linalg.norm(lifts[0].matrix - lifts[1].matrix) <= 1e-15
        assert kept == [cand]
        assert np.linalg.norm(cand.matrix - quat_to_matrix(q)) <= 1e-12

    def test_the_linear_route_merges_the_two_completions_of_a_slightly_tilted_plane(self, monkeypatch):
        # a planar tetrahedron of size 1e6 seen after a turn by 3e-7 about x: the
        # completions along the plane normal both pass the gate under the identity
        # relabeling, less than DEDUPE_DISTANCE apart, and one is kept
        tetra = Tetrahedron(np.array([[1.0, 0.2, 0.0], [-0.3, 1.1, 0.0], [-0.9, -0.6, 0.0], [0.2, -0.7, 0.0]]) * 1e6)
        q = quat_from_axis_angle([1.0, 0.0, 0.0], 3e-7)
        merges = []
        original = solver.dedupe_rotations
        monkeypatch.setattr(
            solver, "dedupe_rotations",
            lambda candidates: merges.append((candidates, original(candidates))) or merges[-1][1],
        )
        candidates = unlabeled_solve(tetra, labeled_shadow(tetra, q))
        ((fitted, kept),) = merges
        assert [c.sigma for c in fitted] == [IDENTITY_PERMUTATION] * 2
        assert not solver._apart(fitted[0].matrix.ravel().tolist(), fitted[1].matrix.ravel().tolist())
        (cand,) = kept
        assert candidates == kept and cand.planar_ambiguous
        assert np.linalg.norm(cand.matrix - quat_to_matrix(q)) <= 1e-6
