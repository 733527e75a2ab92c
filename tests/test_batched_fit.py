"""Pins of the batched relabeling fit behind unlabeled_solve.

The definition tests spell out what unlabeled_solve means: the labeled
solve of every relabeling that survives the norm test, merged by
dedupe_rotations; and the fit itself, written out one relabeling and one
start at a time.  The golden tests fix the exact bits of the output of
unlabeled_solve, labeled_solve and reconstruct_geometric on five
instances, so that a change in the last bits of any candidate fails.  The
geometric definition tests write the route's circle, chords, conic, frames
and lifts out in lists, one list per vector and every sum left to right,
and require the bits of reconstruct_geometric and of its circle,
_circumcircle, on generic, noisy, near-edge-on and scaled instances.
The gate tests feed the shared gate rows on either side of its one
tolerance; the prune and dedupe tests put the norm test and the merge on
either side of theirs.  The factorization tests count the linear-algebra
calls of a solve: one SVD of P3 and no least-squares solve per linear
solve; two SVDs, of P3 and of the conic's design matrix, and nothing else
per geometric solve; nothing for a dedupe with one candidate per
relabeling, no second check of a Tetrahedron's or ProjectionQuad's
arrays, and one UnitQuaternion per returned candidate, which, like every
quaternion built from components that _unit returned, skips the checks
that a quaternion built from outside numbers runs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tetrot import (
    ALL_PERMUTATIONS,
    CLASSIFICATION_CELLS,
    DEFAULT_TOLERANCES,
    CollinearPointsError,
    DegenerateChordError,
    DegenerateTetrahedronError,
    ProjectionQuad,
    SolveCandidate,
    Tetrahedron,
    Tolerances,
    UnitQuaternion,
    apply,
    dedupe_rotations,
    labeled_solve,
    matrix_to_quat,
    project,
    prune_permutations,
    quat_from_axis_angle,
    quat_to_matrix,
    reconstruct_geometric,
    sample_cell_rotation,
    sample_tetrahedron,
    unlabeled_solve,
)
from tetrot.instances import four_cycle_instance, planar_instance
from tetrot import geom, rotation, solver
from tetrot.rotation import _quat_from_rows
from tetrot.solver import _gate

from conftest import near_edge_on, random_full_dim_tetrahedron, random_unit_quaternion, tilted_near_plane


def per_relabeling_solve(tetra, quad):
    """unlabeled_solve by its definition: one labeled solve per surviving relabeling."""
    out = []
    for sigma in prune_permutations(tetra.vertices, quad):
        reordered = ProjectionQuad(quad.points[list(sigma.zero_based())])
        for cand in labeled_solve(tetra, reordered):
            out.append(replace(cand, sigma=sigma))
    return dedupe_rotations(out)


def same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.sigma == b.sigma
        assert a.rotation.as_array().tobytes() == b.rotation.as_array().tobytes()
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert float(a.residual).hex() == float(b.residual).hex()
        assert a.planar_ambiguous == b.planar_ambiguous


def definition_instances():
    rng = np.random.default_rng(43)
    for i in range(40):
        tetra = random_full_dim_tetrahedron(rng)
        shadow = apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]
        noise = rng.normal(0.0, 1e-10, (4, 2)) if i % 2 else 0.0
        yield tetra, ProjectionQuad(shadow + noise)
    inst = planar_instance()
    yield inst.tetrahedron, inst.projection
    for cell in CLASSIFICATION_CELLS:
        for _ in range(3):
            q = sample_cell_rotation(cell, rng)
            tetra = sample_tetrahedron(q, cell.perm_class, rng)
            s = np.linalg.svd(tetra.vertices[:3], compute_uv=False)
            if s[1] > 1e-9 * s[0]:
                yield tetra, project(tetra)


class TestDefinition:
    def test_batched_fit_equals_one_labeled_solve_per_relabeling(self):
        count = 0
        for tetra, quad in definition_instances():
            same_bits(unlabeled_solve(tetra, quad), per_relabeling_solve(tetra, quad))
            count += 1
        assert count >= 80


def cross_matrix(v):
    """[v]x, the matrix of u -> v x u, with each entry a sum that starts at +0.0,
    as the product of v and the 0/1/-1 matrix of the cross product forms it:
    an entry that is zero is +0.0, whatever the signs of the components."""
    x, y, z = v
    return np.array([[0.0, 0.0 - z, 0.0 + y], [0.0 + z, 0.0, 0.0 - x], [0.0 - y, 0.0 + x, 0.0]])


def gauss_newton(vertices, matrix, points):
    """Three steps R <- exp([w]x) R on sum_i |(R p_i)[:2] - u_i|^2.

    The shadow of R p moves by w x (R p) = -[R p]x w, so the Jacobian is the
    top two rows of -[R p]x per vertex: its zero entries are -0.0.  They
    must be: the SVD behind pinv takes the sign of a zero entry (a
    Householder reflector follows the sign of its pivot), so a Jacobian with
    +0.0 there gives singular vectors, and then steps, that differ in the
    last bits.
    """
    for _ in range(3):
        q = vertices @ matrix.T
        jac = np.vstack([-cross_matrix(p)[:2] for p in q])
        miss = (q[:, :2] - points).reshape(8, 1)
        w = -(np.linalg.pinv(jac) @ miss)[:, 0]
        cross = cross_matrix(w)
        t = np.sqrt(np.vecdot(w, w))
        step = np.sinc(t / np.pi) * cross + 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2 * (cross @ cross)
        matrix = (np.eye(3) + step) @ matrix
    return matrix


def lstsq_rows(p3, u3, normal, in_plane, rank_rel):
    """Rows r1, r2 as two least-squares solves at rcond = rank_rel, less
    their component along normal when in_plane: the fit before the
    truncated SVD, kept as its reference."""
    r1 = np.linalg.lstsq(p3, u3[:, 0], rcond=rank_rel)[0]
    r2 = np.linalg.lstsq(p3, u3[:, 1], rcond=rank_rel)[0]
    if in_plane:
        r1, r2 = r1 - (r1 @ normal) * normal, r2 - (r2 @ normal) * normal
    return r1, r2


def written_out_fit(tetra, quad, tol=DEFAULT_TOLERANCES):
    """unlabeled_solve written out one relabeling and one start at a time.

    The rank of P3 = U diag(s) V^T is the count of s above rank_rel s[0];
    the fit keeps k = rank singular values, or 2 when s[2] <= 100 geom_abs.
    For each surviving relabeling the rows r1, r2 solve P3 r = u by the SVD
    truncated at k, r = V_k diag(1/s_k) U_k^T u.  They match the rows of
    lstsq_rows to 1e-12 relative, times the condition number s[0]/s[rank-1]
    of the solve lstsq makes.  The 2x2 matrix I - A A^T, which is c c^T for
    the rows of a rotation, screens the branch against bound.  It then
    picks one start A, or the two completions A + c n^T and A - c n^T along
    the least singular vector n of P3.  Each start, completed by r1 x r2,
    is snapped by the extraction that matrix_to_quat makes, without its
    orthogonality check.  A start whose shadow misses by more than geom_abs
    but at most screen takes three Gauss-Newton steps.  A rotation is kept
    when its residual is at most geom_abs.  When k = 2 and the one
    start A is not kept, its two completions are tried, unless c is zero:
    mean + rad at most 0, or rad = 0, one double eigenvalue.
    """
    vertices = tetra.vertices
    p3 = vertices[:3]
    u, s, vt = np.linalg.svd(p3)
    rank = int(np.count_nonzero(s > tol.rank_rel * s[0]))
    planar = rank == 2
    # rows tilted along n by noise past 1e-2 keep only their in-plane part
    in_plane = planar or s[2] <= 100.0 * tol.geom_abs
    k = 2 if in_plane else 3
    ratio = tol.geom_abs / s[k - 1]
    bound = 4.0 * ratio * (1.0 + ratio)
    screen = tol.geom_abs + 8.0 * math.sqrt(bound) * s[0]
    normal = vt[2]

    def snap(matrix):
        # Shepperd's extraction with no orthogonality check: a start is no rotation yet
        return UnitQuaternion._from_unit(*_quat_from_rows(matrix.tolist()))

    def residual(q, points):
        matrix = quat_to_matrix(q)
        return matrix, float(np.linalg.norm((vertices @ matrix.T)[:, :2] - points, axis=1).max())

    out = []
    for sigma in prune_permutations(vertices, quad, tol):
        points = quad.points[list(sigma.zero_based())]
        r1, r2 = (vt[:k].T @ (u[:, :k].T @ points[:3] / s[:k, None])).T
        reference = np.array(lstsq_rows(p3, points[:3], normal, in_plane, tol.rank_rel))
        gap = np.abs(np.array([r1, r2]) - reference).max()
        assert gap <= 1e-12 * (s[0] / s[rank - 1]) * np.abs(reference).max()
        m00 = 1.0 - (r1[0] * r1[0] + r1[1] * r1[1] + r1[2] * r1[2])
        m11 = 1.0 - (r2[0] * r2[0] + r2[1] * r2[1] + r2[2] * r2[2])
        m01 = -(r1[0] * r2[0] + r1[1] * r2[1] + r1[2] * r2[2])
        mean, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
        rad = math.sqrt(half * half + m01 * m01)
        if abs(mean - rad) > bound:
            continue

        def completions():
            # eigenvector of the larger eigenvalue mean + rad, scaled to its square root
            e = np.array([rad + half, m01] if half >= 0.0 else [m01, rad - half])
            c = e * math.sqrt((mean + rad) / (e[0] * e[0] + e[1] * e[1]))
            return [(r1 + c[0] * normal, r2 + c[1] * normal), (r1 - c[0] * normal, r2 - c[1] * normal)]

        def kept(starts):
            found = []
            for row1, row2 in starts:
                q = snap(np.vstack([row1, row2, np.cross(row1, row2)]))
                matrix, res = residual(q, points)
                if tol.geom_abs < res <= screen:
                    q = snap(gauss_newton(vertices, matrix, points))
                    matrix, res = residual(q, points)
                if res <= tol.geom_abs:
                    found.append(SolveCandidate(sigma, q, matrix, res, planar))
            return found

        starts = completions() if mean + rad > bound else [(r1, r2)]
        candidates = kept(starts)
        if not candidates and len(starts) == 1 and in_plane and rad > 0.0 and mean + rad > 0.0:
            candidates = kept(completions())
        out += candidates
    return dedupe_rotations(out)


def planar_instances():
    rng = np.random.default_rng(47)
    inst = planar_instance()
    yield inst.tetrahedron, inst.projection
    for cell in CLASSIFICATION_CELLS:
        for _ in range(3):
            q = sample_cell_rotation(cell, rng)
            tetra = sample_tetrahedron(q, cell.perm_class, rng)
            s = np.linalg.svd(tetra.vertices[:3], compute_uv=False)
            if s[1] > 1e-9 * s[0] >= s[2]:
                shadow = project(tetra).points
                yield tetra, ProjectionQuad(shadow)
                yield tetra, ProjectionQuad(shadow + rng.normal(0.0, 1e-10, (4, 2)))


class TestPlanarDefinition:
    def test_one_least_squares_solve_equals_two_per_branch(self):
        count = branches = 0
        for tetra, quad in planar_instances():
            got = unlabeled_solve(tetra, quad)
            same_bits(got, written_out_fit(tetra, quad))
            count += 1
            branches += len(got)
        assert count >= 40
        assert branches >= 200


    def test_written_out_fit_holds_where_rejected_starts_are_completed(self, monkeypatch):
        # every draw, in-plane fits and full-rank ones; draws 138 and 838 refine a
        # full-rank start whose Jacobian has -0.0 entries that count
        completed, refined = [], []
        starts, refine = solver._starts, solver._gauss_newton

        def counted(*args):
            owner, got = starts(*args)
            if args[3:]:  # the completions of branches whose one start the gate rejected
                completed.extend(owner)
            return owner, got

        monkeypatch.setattr(solver, "_starts", counted)
        monkeypatch.setattr(solver, "_gauss_newton", lambda *args: refined.append(len(args[1])) or refine(*args))
        rng = np.random.default_rng(2026)
        in_plane, refined_full_rank = 0, []
        for index, (tetra, truth) in enumerate([tilted_near_plane(rng) for _ in range(1000)]):
            quad = ProjectionQuad((tetra.vertices @ truth.T)[:, :2])
            refined.clear()
            same_bits(unlabeled_solve(tetra, quad), written_out_fit(tetra, quad))
            if np.linalg.svd(tetra.vertices[:3], compute_uv=False)[2] <= 100.0 * DEFAULT_TOLERANCES.geom_abs:
                in_plane += 1
            elif refined:
                refined_full_rank.append(index)
        assert in_plane >= 300
        assert len(completed) >= 30
        assert {138, 838} <= set(refined_full_rank)
        assert len(refined_full_rank) >= 10


class TestFitDefinition:
    def test_written_out_fit_holds_where_gauss_newton_runs(self, monkeypatch):
        refined = []
        refine = solver._gauss_newton
        monkeypatch.setattr(solver, "_gauss_newton", lambda *args: refined.extend(args[1]) or refine(*args))
        rng = np.random.default_rng(53)
        for i in range(60):
            if i % 3 == 0:
                tetra, noise = random_full_dim_tetrahedron(rng), 1e-9
            else:
                # near-planar: a random plane, lifted off it by 1e-6 or 1e-8
                basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                lift = (1e-6, 1e-8)[i % 3 - 1] * rng.standard_normal((4, 1)) * basis[:, 2]
                tetra, noise = Tetrahedron(rng.standard_normal((4, 2)) @ basis[:, :2].T + lift), 1e-10
            shadow = apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]
            quad = ProjectionQuad(shadow + rng.normal(0.0, noise, (4, 2)))
            same_bits(unlabeled_solve(tetra, quad), written_out_fit(tetra, quad))
        assert len(refined) >= 30


class TestGate:
    """_gate on starts with a row on either side of its tolerance, each under its own relabeling."""

    def test_only_rows_within_every_tolerance_come_back(self):
        tetra = four_cycle_instance().tetrahedron
        vertices = tetra.vertices
        shadow = vertices[:, :2]
        eye = np.eye(3)[:2]
        nan = eye.copy()
        nan[1, 2] = np.nan
        inf = eye.copy()
        inf[0, 0] = np.inf

        def shifted(d):
            points = shadow.copy()
            points[3, 0] += d
            return points

        cases = [
            ("exact", eye, shadow, True),
            ("nan", nan, shadow, False),
            ("inf", inf, shadow, False),
            # the first two rows of diag(1, 1, -1) complete to the identity
            ("det -1 rows", np.diag([1.0, 1.0, -1.0])[:2], shadow, True),
            ("residual below", eye, shifted(0.99e-8), True),
            ("residual above", eye, shifted(1.01e-8), False),
        ]
        out = []
        for row, (_, start, points, _) in enumerate(cases):
            # case i is fitted under relabeling row i, which sends vertex j to the case's point j
            relabeled = np.empty_like(points)
            relabeled[list(ALL_PERMUTATIONS[row].zero_based())] = points
            out += _gate(vertices, [start.tolist()], [row], relabeled.tolist(), 0.0, False, DEFAULT_TOLERANCES)
        sigmas = {c.sigma for c in out}
        kept = [name for row, (name, *_) in enumerate(cases) if ALL_PERMUTATIONS[row] in sigmas]
        assert kept == [name for name, _, _, ok in cases if ok]
        for cand in out:
            assert cand.residual <= DEFAULT_TOLERANCES.geom_abs
            assert not cand.matrix.flags.writeable
            assert np.abs(cand.matrix.T @ cand.matrix - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(cand.matrix) - 1.0) <= 1e-12

    def test_a_dropped_start_leaves_each_other_start_its_row(self):
        # the NaN start comes first, under another row: the exact one must still be gated against
        # the shadow of row 0 and come back as the identity relabeling
        vertices = four_cycle_instance().tetrahedron.vertices
        eye = np.eye(3)[:2]
        nan = eye.copy()
        nan[1, 2] = np.nan
        out = _gate(vertices, [nan.tolist(), eye.tolist()], [5, 0], vertices[:, :2].tolist(), 0.0, False,
                    DEFAULT_TOLERANCES)
        assert [c.sigma for c in out] == [ALL_PERMUTATIONS[0]]

    def test_a_start_inside_the_screen_is_refined(self):
        tetra = four_cycle_instance().tetrahedron
        truth = quat_to_matrix(random_unit_quaternion(np.random.default_rng(59)))
        shadow = (tetra.vertices @ truth.T)[:, :2]
        off = quat_to_matrix(UnitQuaternion.normalized(1.0, 3e-6, -2e-6, 4e-6)) @ truth
        start = [off[:2].tolist()]
        args = (tetra.vertices, start, [0], shadow.tolist())  # row 0 is the identity
        (cand,) = _gate(*args, 1e-3, False, DEFAULT_TOLERANCES)
        assert np.linalg.norm(cand.matrix - truth) <= 1e-12
        assert cand.residual <= 1e-13
        assert _gate(*args, 1e-6, False, DEFAULT_TOLERANCES) == []


class TestRightHandSide:
    """The flat-index table of the right-hand side against the gather, slice, transpose and reshape it replaced."""

    @staticmethod
    def by_gather(points, perm_rows):
        gathered = points[np.array([sigma.zero_based() for sigma in ALL_PERMUTATIONS])[perm_rows]]
        return gathered[:, :3].transpose(1, 0, 2).reshape(3, -1)

    def test_same_bytes_for_any_rows(self):
        rng = np.random.default_rng(67)
        subsets = [[0], list(range(24))]
        subsets += [sorted(rng.choice(24, size=rng.integers(1, 25), replace=False).tolist()) for _ in range(300)]
        for i, perm_rows in enumerate(subsets):
            points = rng.standard_normal((4, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (4, 2))
            if i % 3 == 0:
                points[rng.integers(0, 4, 3), rng.integers(0, 2, 3)] = (0.0, -0.0, points[0, 0])
            quad = ProjectionQuad(points)
            got = quad.points.ravel()[solver._RHS_INDEX[:, perm_rows]].reshape(3, -1)
            want = self.by_gather(quad.points, perm_rows)
            assert got.shape == want.shape == (3, 2 * len(perm_rows))
            assert got.tobytes() == want.tobytes()


class TestPrune:
    """_prune against its definition: sigma survives iff ||u_sigma(i)|| <= ||p_i|| + tol for every i."""

    @staticmethod
    def by_definition(vertices, points, tol):
        def norm(row):
            return math.sqrt(sum(x * x for x in row))

        return [sigma for sigma in ALL_PERMUTATIONS
                if all(norm(points[sigma.image(i) - 1]) <= norm(vertices[i - 1]) + tol for i in (1, 2, 3, 4))]

    def test_random_sets(self):
        rng = np.random.default_rng(71)
        sizes = set()
        for _ in range(300):
            vertices = rng.standard_normal((4, 3)) * rng.uniform(0.2, 2.0, (4, 1))
            points = rng.standard_normal((4, 2)) * rng.uniform(0.2, 2.0, (4, 1))
            tol = float(rng.choice([1e-8, 0.1, 0.5]))
            got = [ALL_PERMUTATIONS[row] for row in solver._prune(vertices, points, tol)]
            assert got == self.by_definition(vertices.tolist(), points.tolist(), tol)
            assert prune_permutations(vertices, ProjectionQuad(points), Tolerances(geom_abs=tol)) == got
            sizes.add(len(got))
        assert {0, 24} < sizes and len(sizes) >= 5

    @pytest.mark.parametrize("excess, survivors", [(0.0, 4), (1.0, 0)], ids=["tie", "beyond"])
    def test_a_point_at_a_vertex_norm_plus_tol(self, excess, survivors):
        # norms are exact: the vertices have norm 5, 5, 1, 1 and point 0 has
        # norm 5 + tol (+ tol beyond), all in binary; sigma must send vertices 3 and 4
        # to points 3 and 4, and vertices 1 and 2 to points 1 and 2
        tol = 2.0 ** -20
        vertices = np.array([[3.0, 4.0, 0.0], [0.0, 3.0, 4.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        points = np.array([[5.0 + (1.0 + excess) * tol, 0.0], [0.0, 4.0], [1.0, 0.0], [0.0, 0.5]])
        got = [ALL_PERMUTATIONS[row] for row in solver._prune(vertices, points, tol)]
        assert got == self.by_definition(vertices.tolist(), points.tolist(), tol)
        assert len(got) == survivors
        assert all(set(sigma.images[2:]) == {3, 4} for sigma in got)

    def test_a_vertex_no_point_reaches_leaves_nothing(self):
        vertices = np.array([[3.0, 4.0, 0.0], [0.0, 3.0, 4.0], [4.0, 0.0, 3.0], [1e-3, 0.0, 0.0]])
        points = np.array([[1.0, 0.0], [0.0, 2.0], [1.5, 1.5], [0.0, -1.0]])
        assert solver._prune(vertices, points, 1e-8) == [] == self.by_definition(vertices, points, 1e-8)


class TestDedupe:
    """dedupe_rotations on one relabeling's group, on either side of DEDUPE_DISTANCE."""

    def test_merges_below_the_tolerance_and_orders_by_residual(self):
        tol = solver.DEDUPE_DISTANCE
        sigma = ALL_PERMUTATIONS[7]

        def candidate(entry, distance, residual):
            matrix = np.zeros(9)
            matrix[entry] = distance
            return SolveCandidate(sigma, UnitQuaternion(1.0, 0.0, 0.0, 0.0), matrix.reshape(3, 3), residual, False)

        # the offsets lie along different entries: each is at its distance from
        # the representative, and more than tol from the far one
        rep = candidate(0, 0.0, 2e-12)
        half = candidate(0, 0.5 * tol, 3e-12)
        inside = candidate(1, (1.0 - 1e-9) * tol, 4e-12)
        far = candidate(2, 2.0 * tol, 1e-12)
        for order in ([half, inside, far, rep], [rep, far, inside, half], [inside, rep, half, far]):
            merged = dedupe_rotations(order)
            assert [id(c) for c in merged] == [id(far), id(rep)]
        # at exactly the distance two rotations are two: math.dist of one offset entry is that entry
        at = candidate(1, tol, 4e-12)
        assert [id(c) for c in dedupe_rotations([at, rep])] == [id(rep), id(at)]


# Inputs as float.hex: centred vertices (4x3) and shadow points (4x2),
# row by row.
INPUTS = {
    "relabeled": (
        """
        0x1.91b440b6fb935p-1 0x1.78fbac45565d8p-6 -0x1.092a06cdaaf1dp+1
        0x1.2449362c69638p-2 -0x1.29bdcee5546ddp-1 0x1.7bfe094ad39aep-1
        -0x1.0923823ab6220p+0 0x1.f57d1b4e839bcp-5 0x1.4512ef26d133cp-6
        -0x1.191d757c40110p-5 0x1.fd3c3f9c83024p-2 0x1.4f40bd3950d15p+0
        """,
        """
        0x1.585d3aac0bf89p+0 -0x1.8a7c3ef877e2bp-2 -0x1.549449716280ep-3
        -0x1.5672f343c1f91p-1 -0x1.941b3475e40eep+0 0x1.8d13f737b2f55p+0
        0x1.99420be011996p-2 -0x1.fcedb75ed0006p-2
        """,
    ),
    "noisy": (
        """
        0x1.e4ff053a1300ap+0 0x1.058b8edeeb0cbp-2 -0x1.d4ed4ce0b49ecp-1
        -0x1.6282219693f1ep-1 0x1.f80690a563104p-2 0x1.3e8f11dbd4c34p-2
        -0x1.4e1e81beabbd8p-1 -0x1.49c22e66d990cp-1 -0x1.f87e93514b270p-4
        -0x1.195d671ee651cp-1 -0x1.a8370ada6bedcp-4 0x1.74b5965cf3a20p-1
        """,
        """
        -0x1.60d65e563d05dp-1 0x1.d2a0b7a74e2efp+0 0x1.4bf11487a8c65p-1
        -0x1.3cc1fd350a988p-1 -0x1.d846d391afc17p-2 -0x1.6d08a024a1d07p-1
        0x1.0108b39812f0ep-1 -0x1.f6eda3edc06a0p-2
        """,
    ),
    "ambiguous": (
        """
        -0x1.e2467e67e8fb4p-5 0x1.098508089aa41p-1 0x1.832e0fa50e9e6p+0
        -0x1.0112d3b02a1b3p-1 0x1.23d1ed78f5aa3p-3 -0x1.c027e2cdfff63p-2
        0x1.3708faa4364c2p-2 -0x1.3e433716d83d0p-2 -0x1.bd7bb5eba7b4ap-2
        0x1.07657c891b09ap-2 -0x1.66afcfb6d7e04p-2 -0x1.478a52ed49676p-1
        """,
        """
        -0x1.e2467e67e8fb4p-5 0x1.098508089aa41p-1 -0x1.0112d3b02a1b3p-1
        0x1.23d1ed78f5aa3p-3 0x1.3708faa4364c2p-2 -0x1.3e433716d83d0p-2
        0x1.07657c891b09ap-2 -0x1.66afcfb6d7e04p-2
        """,
    ),
}

# Output of unlabeled_solve per instance: relabeling, planar flag, then
# quaternion (4), matrix (9, row by row) and residual as float.hex.
EXPECTED = {
    "relabeled": [
        ((3, 4, 2, 1), False, """
            0x1.3ebfe450919e4p-1 0x1.db36c5f4a13b2p-2 0x1.409235890c59cp-1
            0x1.22a15f254e6c4p-4
            0x1.a5a97a8c810f3p-3 0x1.f89c4c9d0c178p-2 0x1.b0dde3224d667p-1
            0x1.56c5b9c0e73acp-1 0x1.1e4f246660025p-1 -0x1.f4b652a6706eap-2
            -0x1.6d6defd847384p-1 0x1.55571642b14fdp-1 -0x1.b7dbb3b0d4290p-3
            0x1.c000000000000p-52
            """),
    ],
    "noisy": [
        ((1, 2, 3, 4), False, """
            0x1.019e432897301p-2 0x1.3a0235d524fe1p-1 0x1.625cf24ef83dep-1
            0x1.246bf115992cfp-2
            -0x1.f036560506438p-4 0x1.6917c75c03ddbp-1 0x1.65a4a6cfc4190p-1
            0x1.fc3a598a0fbf7p-1 0x1.5aa7c86893c60p-4 0x1.63245ca8b96c0p-4
            0x1.0a453a6cedc80p-9 0x1.6862e35da8bedp-1 -0x1.6bae9bf5360cap-1
            0x1.7a865ce109a92p-32
            """),
    ],
    "ambiguous": [
        ((1, 2, 3, 4), True, """
            0x1.0000000000000p+0 -0x1.0000000000002p-55 -0x1.0000000000002p-55
            -0x1.0000000000002p-55
            0x1.0000000000000p+0 0x1.0000000000002p-54 -0x1.0000000000002p-54
            -0x1.0000000000002p-54 0x1.0000000000000p+0 0x1.0000000000002p-54
            0x1.0000000000002p-54 -0x1.0000000000002p-54 0x1.0000000000000p+0
            0x1.1e3779b97f4a8p-53
            """),
        ((1, 2, 3, 4), True, """
            0x1.13be66f531524p-2 -0x1.ad9207674adb1p-1 0x1.e42aef7b4cd54p-2
            0x1.311f98db81e8fp-56
            0x1.1b1367d0943f5p-1 -0x1.963810e75dbc3p-1 0x1.04c11cec036b0p-2
            -0x1.963810e75dbc3p-1 -0x1.a1a5803945d46p-2 0x1.ceb35d191289fp-2
            -0x1.04c11cec036b2p-2 -0x1.ceb35d191289fp-2 -0x1.b5bf584c0eaaep-1
            0x1.2de32c6628741p-51
            """),
        ((2, 1, 4, 3), True, """
            0x1.043d85db501ebp-54 -0x1.4b44f1404dc6dp-1 0x1.8663efc604794p-1
            -0x1.553d71344225ep-53
            -0x1.4d52964aa5717p-3 -0x1.f92c5976dcb2bp-1 0x1.3fffffffffffep-52
            -0x1.f92c5976dcb2bp-1 0x1.4d52964aa5717p-3 -0x1.6000000000001p-53
            0x1.e6495d14c80eep-54 -0x1.5860d0d4b4275p-52 -0x1.0000000000000p+0
            0x1.07e0f66afed07p-52
            """),
        ((2, 1, 4, 3), True, """
            0x1.ce855a5235598p-1 0x1.64d1718de2337p-3 -0x1.a47fb5bf66293p-3
            -0x1.55d1356ecb28cp-2
            0x1.62bb0a6a856b3p-1 0x1.1027346393968p-1 -0x1.f2f867c8c1d2fp-2
            -0x1.596a685472a4cp-1 0x1.6ed0cc38cf9b1p-1 -0x1.6bf0f9126387cp-3
            0x1.04c11cec036acp-2 0x1.ceb35d19128a2p-2 0x1.b5bf584c0eab2p-1
            0x1.11687a8ae14a3p-51
            """),
    ],
    "four-cycle": [
        ((1, 2, 3, 4), False, """
            0x1.0000000000000p+0 0x1.a6b5a86b10c0ap-53 -0x1.d7e45c4a915a5p-54
            -0x1.c6484cba09b3ap-52
            0x1.0000000000000p+0 0x1.c6484cba09b3ap-51 -0x1.d7e45c4a915abp-53
            -0x1.c6484cba09b3ap-51 0x1.0000000000000p+0 -0x1.a6b5a86b10c08p-52
            0x1.d7e45c4a9159fp-53 0x1.a6b5a86b10c0cp-52 0x1.0000000000000p+0
            0x1.4ef363dec1355p-48
            """),
        ((2, 3, 4, 1), False, """
            0x1.bb67ae8584cacp-1 0x1.6a09e667f3bcdp-2 0x1.bb67ae8584ca9p-55
            0x1.6a09e667f3bc4p-2
            0x1.8000000000006p-1 -0x1.3988e14092128p-1 0x1.ffffffffffff8p-3
            0x1.3988e14092128p-1 0x1.0000000000006p-1 -0x1.3988e14092130p-1
            0x1.ffffffffffff2p-3 0x1.3988e14092130p-1 0x1.8000000000000p-1
            0x1.6da506e12f87ep-48
            """),
    ],
    "planar": [
        ((1, 2, 3, 4), True, """
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.81fb256af7236p-56
            0x1.0000000000000p+0 0x0.0p+0 0x1.81fb256af7236p-55
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            0x1.81fb256af7236p-55 0x0.0p+0 -0x1.0000000000000p+0
            0x1.81fb256af7236p-54
            """),
        ((1, 2, 3, 4), True, """
            0x1.0000000000000p+0 0x0.0p+0 0x1.81fb256af7238p-56
            0x0.0p+0
            0x1.0000000000000p+0 0x0.0p+0 0x1.81fb256af7238p-55
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            -0x1.81fb256af7238p-55 0x0.0p+0 0x1.0000000000000p+0
            0x1.81fb256af7238p-54
            """),
        ((1, 3, 2, 4), True, """
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.81fb256af7236p-56
            0x1.0000000000000p+0 0x0.0p+0 0x1.81fb256af7236p-55
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            0x1.81fb256af7236p-55 0x0.0p+0 -0x1.0000000000000p+0
            0x1.81fb256af7236p-54
            """),
        ((1, 3, 2, 4), True, """
            0x1.0000000000000p+0 0x0.0p+0 0x1.81fb256af7238p-56
            0x0.0p+0
            0x1.0000000000000p+0 0x0.0p+0 0x1.81fb256af7238p-55
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            -0x1.81fb256af7238p-55 0x0.0p+0 0x1.0000000000000p+0
            0x1.81fb256af7238p-54
            """),
        ((4, 2, 3, 1), True, """
            0x1.81fb256af7236p-56 -0x0.0p+0 -0x1.0000000000000p+0
            -0x0.0p+0
            -0x1.0000000000000p+0 0x0.0p+0 -0x1.81fb256af7236p-55
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.81fb256af7236p-55 0x0.0p+0 -0x1.0000000000000p+0
            0x1.81fb256af7236p-54
            """),
        ((4, 2, 3, 1), True, """
            -0x0.0p+0 0x1.81fb256af7238p-56 -0x0.0p+0
            -0x1.0000000000000p+0
            -0x1.0000000000000p+0 -0x0.0p+0 -0x1.81fb256af7238p-55
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            -0x1.81fb256af7238p-55 0x0.0p+0 0x1.0000000000000p+0
            0x1.81fb256af7238p-54
            """),
        ((4, 3, 2, 1), True, """
            0x1.81fb256af7236p-56 -0x0.0p+0 -0x1.0000000000000p+0
            -0x0.0p+0
            -0x1.0000000000000p+0 0x0.0p+0 -0x1.81fb256af7236p-55
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.81fb256af7236p-55 0x0.0p+0 -0x1.0000000000000p+0
            0x1.81fb256af7236p-54
            """),
        ((4, 3, 2, 1), True, """
            -0x0.0p+0 0x1.81fb256af7238p-56 -0x0.0p+0
            -0x1.0000000000000p+0
            -0x1.0000000000000p+0 -0x0.0p+0 -0x1.81fb256af7238p-55
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            -0x1.81fb256af7238p-55 0x0.0p+0 0x1.0000000000000p+0
            0x1.81fb256af7238p-54
            """),
    ],
}


# Output of reconstruct_geometric per instance, in the format of EXPECTED,
# or the error it raises.  labeled_solve is pinned by the identity-relabeling
# entries of EXPECTED.
EXPECTED_GEOMETRIC = {
    "relabeled": [],
    "noisy": [
        ((1, 2, 3, 4), False, """
            0x1.019e432b4121ep-2 0x1.3a0235d4e76dap-1 0x1.625cf24e64284p-1
            0x1.246bf11716a35p-2
            -0x1.f03655ff0578fp-4 0x1.6917c759d64c1p-1 0x1.65a4a6d2185c4p-1
            0x1.fc3a598a27995p-1 0x1.5aa7c8667d111p-4 0x1.63245ca23ade8p-4
            0x1.0a4539a63e500p-9 0x1.6862e35fdf719p-1 -0x1.6bae9bf3050e0p-1
            0x1.1aff8841eb54fp-32
            """),
    ],
    "ambiguous": DegenerateTetrahedronError,
    "four-cycle": [
        ((1, 2, 3, 4), False, """
            0x1.0000000000000p+0 -0x1.d000000000000p-52 -0x1.fffffffffff9ap-57
            0x1.b000000000000p-52
            0x1.0000000000000p+0 -0x1.b000000000000p-51 -0x1.ffffffffffffcp-56
            0x1.b000000000000p-51 0x1.0000000000000p+0 0x1.d000000000000p-51
            0x1.fffffffffff38p-56 -0x1.d000000000000p-51 0x1.0000000000000p+0
            0x1.752e50db3a3a2p-47
            """),
    ],
    "planar": DegenerateTetrahedronError,
}


def hex_floats(text):
    return [float.fromhex(token) for token in text.split()]


class TestGolden:
    @staticmethod
    def instance(name):
        if name == "four-cycle":
            inst = four_cycle_instance()
            return inst.tetrahedron, inst.projection
        if name == "planar":
            inst = planar_instance()
            return inst.tetrahedron, inst.projection
        vertices, points = INPUTS[name]
        return (
            Tetrahedron(np.reshape(hex_floats(vertices), (4, 3))),
            ProjectionQuad(np.reshape(hex_floats(points), (4, 2))),
        )

    @staticmethod
    def assert_bits(candidates, expected):
        assert len(candidates) == len(expected)
        for cand, (images, planar, values) in zip(candidates, expected):
            want = hex_floats(values)
            assert cand.sigma.images == images
            assert cand.planar_ambiguous is planar
            assert [float(x).hex() for x in cand.rotation.as_array()] == [x.hex() for x in want[:4]]
            assert [float(x).hex() for x in cand.matrix.ravel()] == [x.hex() for x in want[4:13]]
            assert float(cand.residual).hex() == want[13].hex()

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_unlabeled_solve_bits(self, name):
        self.assert_bits(unlabeled_solve(*self.instance(name)), EXPECTED[name])

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_labeled_solve_bits(self, name):
        identity = [entry for entry in EXPECTED[name] if entry[0] == (1, 2, 3, 4)]
        self.assert_bits(labeled_solve(*self.instance(name)), identity)

    @pytest.mark.parametrize("name", sorted(EXPECTED_GEOMETRIC))
    def test_reconstruct_geometric_bits(self, name):
        expected = EXPECTED_GEOMETRIC[name]
        if isinstance(expected, type):
            with pytest.raises(expected):
                reconstruct_geometric(*self.instance(name))
        else:
            self.assert_bits(reconstruct_geometric(*self.instance(name)), expected)


def left_to_right(values):
    """sum() as CPython adds floats before 3.12; from 3.12 on it compensates."""
    total = 0
    for x in values:
        total += x
    return total


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def reference_circumcircle(p, q, r, rel_tol):
    """Center and radius of the circle through three points, one list per vector."""
    d1 = [b - a for a, b in zip(p, q)]
    d2 = [b - a for a, b in zip(p, r)]
    longest = max(math.hypot(*d1), math.hypot(*d2))
    if longest == 0.0:
        raise CollinearPointsError("circumcircle needs three non-collinear points")
    # a power of two at or above the longer edge: the division is exact and no square overflows
    scale = math.ldexp(1.0, math.frexp(longest)[1])
    longest /= scale
    u1 = [x / scale for x in d1]
    u2 = [x / scale for x in d2]
    normal = cross(u1, u2)
    area = math.hypot(*normal)
    if area <= rel_tol * longest * longest:
        raise CollinearPointsError("circumcircle needs three non-collinear points")
    g11 = u1[0] * u1[0] + u1[1] * u1[1] + u1[2] * u1[2]
    g22 = u2[0] * u2[0] + u2[1] * u2[1] + u2[2] * u2[2]
    twice = 2.0 * area * area
    offset = [x / twice for x in cross([g11 * b - g22 * a for a, b in zip(u1, u2)], normal)]
    return [a + scale * x for a, x in zip(p, offset)], scale * math.hypot(*offset)


def reference_frame(points):
    """Right-handed orthonormal frame of three points, as rows e1, e2, e3."""
    p0, p1, p2 = points
    e1 = [b - a for a, b in zip(p0, p1)]
    length = math.hypot(*e1)
    e1 = [x / length for x in e1]
    e2 = [b - a for a, b in zip(p0, p2)]
    along = e2[0] * e1[0] + e2[1] * e1[1] + e2[2] * e1[2]
    e2 = [x - along * y for x, y in zip(e2, e1)]
    length = math.hypot(*e2)
    e2 = [x / length for x in e2]
    return [e1, e2, cross(e1, e2)]


def reference_unit_conic(points, rel_tol):
    n = len(points)
    mx = left_to_right(x for x, _ in points) / n
    my = left_to_right(y for _, y in points) / n
    dev = [(x - mx, y - my) for x, y in points]
    spread = math.hypot(*(t for pair in dev for t in pair)) / math.sqrt(n)
    if spread == 0.0:
        raise CollinearPointsError("coincident points do not determine a conic")
    rows = [[x * x, x * y, y * y, x, y, 1.0] for x, y in ((dx / spread, dy / spread) for dx, dy in dev)]
    _, s, vh = np.linalg.svd(np.array(rows))
    if geom._rank(s, rel_tol) < 5:
        raise CollinearPointsError("points in degenerate position, conic is not unique")
    return mx, my, spread, vh[-1].tolist()


def reference_geometric(tetra, quad, tol=DEFAULT_TOLERANCES):
    """reconstruct_geometric with its circle, chords, conic, frames and lifts written out in lists."""
    p3 = tetra.vertices[:3]
    s = np.linalg.svd(p3, compute_uv=False)
    if geom._rank(s, tol.rank_rel) < 3:
        raise DegenerateTetrahedronError("geometric reconstruction needs a full-dimensional tetrahedron")
    p = p3.tolist()
    center, radius = reference_circumcircle(*p, tol.rank_rel)
    u = quad.points.tolist()
    (x0, y0), (x1, y1), (x2, y2) = u[:3]
    area2 = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    uscale = max(math.hypot(x1 - x0, y1 - y0), math.hypot(x2 - x0, y2 - y0))
    if uscale == 0.0 or area2 <= tol.rank_rel * uscale * uscale:
        raise CollinearPointsError("projected points are collinear")
    six = u[:3]
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        # the chord from p_i through the midpoint of its opposite edge meets the circle again
        # at parameter -2 along / |chord| along it, and that parameter transfers to the shadow
        chord = [0.5 * (a + b) - c for a, b, c in zip(p[j], p[k], p[i])]
        chord_len = math.hypot(*chord)
        if chord_len <= tol.rank_rel * radius:
            raise DegenerateChordError("vertex coincides with the opposite edge midpoint")
        along = left_to_right((a - c) * b for a, c, b in zip(p[i], center, chord)) / chord_len
        ratio = -2.0 * along / chord_len
        (xi, yi), (xj, yj), (xk, yk) = u[i], u[j], u[k]
        dx, dy = 0.5 * (xj + xk) - xi, 0.5 * (yj + yk) - yi
        if math.hypot(dx, dy) <= tol.rank_rel * uscale:
            raise DegenerateChordError("projected chord collapses to a point")
        six.append([xi + ratio * dx, yi + ratio * dy])
    mx, my, spread, coefficients = reference_unit_conic(six, tol.rank_rel)
    (cx, cy), tilt, (ax, ay) = solver._ellipse_geometry(coefficients)
    horiz = math.sqrt(max(1.0 - tilt * tilt, 0.0))
    cx, cy = mx + spread * cx, my + spread * cy
    f3 = reference_frame(p)
    lifts = []
    for lean in (horiz, -horiz):
        # the rows of the lift are the first two of F_lift F_3^T, each F the frame as columns
        nx, ny = -lean * ay, lean * ax
        fl = reference_frame([[x, y, ((cx - x) * nx + (cy - y) * ny) / tilt] for x, y in u[:3]])
        lifts.append([[fl[0][i] * f3[0][j] + fl[1][i] * f3[1][j] + fl[2][i] * f3[2][j] for j in range(3)]
                      for i in range(2)])
    _, screen = solver._noise_bounds(s, tol)
    out = _gate(tetra.vertices, lifts, [0, 0], u, screen, False, tol)  # row 0 is the identity
    return dedupe_rotations(out)


def outcome(solve, *args):
    """The bits of every candidate as float.hex, or the type and message of the error raised."""
    try:
        candidates = solve(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [
        (c.sigma.images, c.planar_ambiguous, [float(x).hex() for x in [*c.rotation.as_array(), *c.matrix.ravel()]],
         float(c.residual).hex())
        for c in candidates
    ]


@pytest.fixture(scope="module")
def geometric_instances():
    """Drawn before any call and kept whatever the route makes of them: the golden five,
    generic shadows exact and with 1e-10 and 1e-9 noise, near-edge-on views, and
    tetrahedra scaled from 1e-150 to 1e150, their shadows exact or with noise 1e-10 of scale."""
    rng = np.random.default_rng(71)
    out = [TestGolden.instance(name) for name in sorted(EXPECTED_GEOMETRIC)]
    for noise in (0.0, 1e-10, 1e-9):
        for _ in range(60):
            tetra = random_full_dim_tetrahedron(rng)
            shadow = apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]
            out.append((tetra, ProjectionQuad(shadow + rng.normal(0.0, noise, (4, 2)) if noise else shadow)))
    for _ in range(60):
        tetra = near_edge_on(rng, rng.uniform(-12, -2))
        out.append((tetra, project(tetra)))
    for i, exponent in enumerate(range(-150, 151, 5)):
        vertices = random_full_dim_tetrahedron(rng).vertices
        scale = 10.0**exponent
        tetra = Tetrahedron(vertices / (4.0 * np.abs(vertices).max()) * scale)
        shadow = apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]
        out.append((tetra, ProjectionQuad(shadow + rng.normal(0.0, 1e-10 * scale, (4, 2)) if i % 2 else shadow)))
    return out


class TestGeometricDefinition:
    """The geometric route and its circle on named floats against their list form, bit for bit."""

    def test_route_equals_its_list_form(self, geometric_instances):
        kinds = set()
        for tetra, quad in geometric_instances:
            got = outcome(reconstruct_geometric, tetra, quad)
            assert got == outcome(reference_geometric, tetra, quad)
            kinds.add(got[0] if isinstance(got, tuple) else len(got))
        assert len(geometric_instances) >= 300
        assert kinds >= {0, 1, CollinearPointsError, DegenerateTetrahedronError, solver.DegenerateViewError}

    def test_circumcircle_equals_its_list_form(self, geometric_instances):
        rel_tol = DEFAULT_TOLERANCES.rank_rel
        for tetra, _ in geometric_instances:
            p, q, r = tetra.vertices[:3].tolist()
            try:
                center, radius = solver._circumcircle(p, q, r, rel_tol)
            except CollinearPointsError as exc:
                with pytest.raises(CollinearPointsError, match=f"^{exc}$"):
                    reference_circumcircle(p, q, r, rel_tol)
                continue
            want_center, want_radius = reference_circumcircle(p, q, r, rel_tol)
            assert [x.hex() for x in center] == [x.hex() for x in want_center]
            assert radius.hex() == want_radius.hex()


class TestOneFactorization:
    """P3 is factored by one SVD per solve, and no solve repeats that work."""

    @staticmethod
    def counting(monkeypatch, names=("svd", "lstsq", "solve")):
        calls = []
        for name in names:
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_one_svd_and_no_lstsq_per_linear_solve(self, monkeypatch, name):
        tetra, quad = TestGolden.instance(name)
        calls = self.counting(monkeypatch)
        for solve in (labeled_solve, unlabeled_solve):
            calls.clear()
            solve(tetra, quad)
            assert calls == [("svd", (3, 3))]

    def test_one_svd_and_no_lstsq_where_gauss_newton_runs(self, monkeypatch):
        rng = np.random.default_rng(67)
        tetra = random_full_dim_tetrahedron(rng)
        quad = ProjectionQuad(apply(random_unit_quaternion(rng), tetra.vertices)[:, :2] + 3e-9)
        refined = []
        refine = solver._gauss_newton
        monkeypatch.setattr(solver, "_gauss_newton", lambda *args: refined.append(None) or refine(*args))
        calls = self.counting(monkeypatch)
        assert unlabeled_solve(tetra, quad)
        assert refined
        assert calls == [("svd", (3, 3))]

    @pytest.mark.parametrize("name", ["four-cycle", "noisy"])
    def test_geometric_route_solves_no_system_in_p3(self, monkeypatch, name):
        tetra, quad = TestGolden.instance(name)
        calls = self.counting(monkeypatch)
        assert reconstruct_geometric(tetra, quad)
        assert [call for call in calls if call[1] == (3, 3)] == [("svd", (3, 3))]
        assert all(shape == (2, 2) for fn, shape in calls if fn == "solve")
        assert "lstsq" not in {fn for fn, _ in calls}

    @pytest.mark.parametrize("name", ["four-cycle", "noisy"])
    def test_geometric_route_takes_two_svds_and_nothing_else(self, monkeypatch, name):
        tetra, quad = TestGolden.instance(name)
        calls = self.counting(monkeypatch, ("svd", "lstsq", "solve", "eigh", "norm", "det", "pinv"))
        assert reconstruct_geometric(tetra, quad)
        assert calls == [("svd", (3, 3)), ("svd", (6, 6))]

    @pytest.mark.parametrize("name", ["four-cycle", "noisy", "relabeled"])
    def test_dedupe_builds_nothing_for_one_candidate_per_relabeling(self, monkeypatch, name):
        candidates = unlabeled_solve(*TestGolden.instance(name))
        assert candidates and len({c.sigma for c in candidates}) == len(candidates)
        calls = self.counting(monkeypatch, ("svd", "lstsq", "solve", "eigh", "norm", "det"))
        for fn in ("array", "vecdot"):
            monkeypatch.setattr(np, fn, lambda *args, _fn=fn, **kwargs: calls.append(_fn))
        merged = dedupe_rotations(candidates[::-1])
        assert calls == []
        assert [id(c) for c in merged] == [id(c) for c in candidates]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_one_quaternion_per_candidate_and_no_stacked_norms(self, monkeypatch, name):
        # pruning, snapping and dedupe run on floats; only a returned candidate gets a UnitQuaternion
        tetra, quad = TestGolden.instance(name)
        built, calls = [], []
        from_unit = UnitQuaternion._from_unit
        counted = classmethod(lambda cls, *q: built.append(None) or from_unit(*q))
        monkeypatch.setattr(UnitQuaternion, "_from_unit", counted)
        for module, fn in ((np.linalg, "norm"), (np, "flatnonzero"), (np, "vecdot")):
            original = getattr(module, fn)

            def counted(*args, _fn=fn, _original=original, **kwargs):
                calls.append(_fn)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, fn, counted)
        candidates = unlabeled_solve(tetra, quad)
        assert len(built) == len(candidates)
        assert calls == []

    def test_only_a_quaternion_built_from_outside_numbers_is_checked(self, monkeypatch):
        # the gate, normalized, the axis turn and matrix_to_quat take components that _unit
        # returned and apply only the sign rule; UnitQuaternion(a, b, c, d) checks them once
        instances = [TestGolden.instance(name) for name in sorted(EXPECTED)]
        checked = []
        post_init = UnitQuaternion.__post_init__
        monkeypatch.setattr(UnitQuaternion, "__post_init__", lambda self: checked.append(None) or post_init(self))
        built = [c.rotation for tetra, quad in instances
                 for c in unlabeled_solve(tetra, quad) + labeled_solve(tetra, quad)]
        built += [c.rotation for c in reconstruct_geometric(*instances[sorted(EXPECTED).index("four-cycle")])]
        q = UnitQuaternion.normalized(-0.3, -0.1, 0.7, 0.2)
        built += [q, quat_from_axis_angle([0.0, 0.6, -0.8], 2.0), matrix_to_quat(quat_to_matrix(q))]
        assert len(built) > 10 and checked == []
        user = UnitQuaternion(q.a, q.b, q.c, q.d)
        assert checked == [None]
        assert user == q and hash(user) == hash(q)
        # the sign rule is the constructor's
        assert UnitQuaternion._from_unit(-0.5, 0.5, -0.5, 0.5) == UnitQuaternion(-0.5, 0.5, -0.5, 0.5)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_unlabeled_solve_checks_no_input_again(self, monkeypatch, name):
        tetra, quad = TestGolden.instance(name)
        checked = []
        for module in (geom, solver, rotation):
            original = module.as_finite_array
            monkeypatch.setattr(module, "as_finite_array", lambda *args, _f=original: checked.append(args) or _f(*args))
        unlabeled_solve(tetra, quad)
        assert checked == []

