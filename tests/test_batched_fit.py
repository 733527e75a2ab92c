"""Pins of the batched relabeling fit behind unlabeled_solve.

The definition tests spell out what unlabeled_solve means: the labeled
solve of every relabeling that survives the norm test, merged by
dedupe_rotations; and the fit itself, written out one relabeling and one
start at a time.  The golden tests fix the exact bits of the output of
unlabeled_solve, labeled_solve and reconstruct_geometric on five
instances, so that a change in the last bits of any candidate fails.
The gate tests feed the shared gate rows on either side of its one
tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from tetrot import (
    ALL_PERMUTATIONS,
    CLASSIFICATION_CELLS,
    DEFAULT_TOLERANCES,
    DegenerateTetrahedronError,
    ProjectionQuad,
    SolveCandidate,
    Tetrahedron,
    UnitQuaternion,
    apply,
    dedupe_rotations,
    labeled_solve,
    matrix_to_quat,
    project,
    prune_permutations,
    quat_to_matrix,
    reconstruct_geometric,
    sample_cell_rotation,
    sample_tetrahedron,
    unlabeled_solve,
)
from tetrot.instances import four_cycle_instance, planar_instance
from tetrot import solver
from tetrot.solver import _gate

from conftest import random_full_dim_tetrahedron, random_unit_quaternion


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


def gauss_newton(vertices, matrix, points):
    """Three steps R <- exp([w]x) R on sum_i |(R p_i)[:2] - u_i|^2."""
    for _ in range(3):
        x, y, z = (vertices @ matrix.T).T
        # the shadow of R p moves by w x (R p): rows (0, z, -y) and (-z, 0, x)
        jac = np.array([row for i in range(4) for row in ([0.0, z[i], -y[i]], [-z[i], 0.0, x[i]])])
        miss = (np.column_stack([x, y]) - points).reshape(8, 1)
        w = -(np.linalg.pinv(jac) @ miss)[:, 0]
        cross = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        t = np.sqrt(np.vecdot(w, w))
        step = np.sinc(t / np.pi) * cross + 0.5 * np.sinc(t / (2.0 * np.pi)) ** 2 * (cross @ cross)
        matrix = (np.eye(3) + step) @ matrix
    return matrix


def written_out_fit(tetra, quad, tol=DEFAULT_TOLERANCES):
    """unlabeled_solve written out one relabeling and one start at a time.

    For each surviving relabeling, two least-squares solves at rcond =
    rank_rel give the rows r1, r2.  The 2x2 matrix I - A A^T, which is
    c c^T for the rows of a rotation, screens the branch against bound.
    It then picks one start A, or the two completions A + c n^T and
    A - c n^T along the least singular vector n of P3.  Each start,
    completed by r1 x r2, is snapped by matrix_to_quat.  A start whose
    shadow misses by more than geom_abs but at most screen takes three
    Gauss-Newton steps.  A rotation is kept when its residual is at most
    geom_abs.
    """
    vertices = tetra.vertices
    p3 = vertices[:3]
    _, s, vt = np.linalg.svd(p3)
    planar = bool(s[2] <= tol.rank_rel * s[0])
    # rows tilted along n by noise past 1e-2 keep only their in-plane part
    in_plane = planar or s[2] <= 100.0 * tol.geom_abs
    ratio = tol.geom_abs / (s[1] if in_plane else s[2])
    bound = 4.0 * ratio * (1.0 + ratio)
    screen = tol.geom_abs + 8.0 * math.sqrt(bound) * s[0]
    normal = vt[2]

    def residual(q, points):
        matrix = quat_to_matrix(q)
        return matrix, float(np.linalg.norm((vertices @ matrix.T)[:, :2] - points, axis=1).max())

    out = []
    for sigma in prune_permutations(vertices, quad, tol.geom_abs):
        points = quad.points[list(sigma.zero_based())]
        r1 = np.linalg.lstsq(p3, points[:3, 0], rcond=tol.rank_rel)[0]
        r2 = np.linalg.lstsq(p3, points[:3, 1], rcond=tol.rank_rel)[0]
        if in_plane:
            r1, r2 = r1 - (r1 @ normal) * normal, r2 - (r2 @ normal) * normal
        m00 = 1.0 - (r1[0] * r1[0] + r1[1] * r1[1] + r1[2] * r1[2])
        m11 = 1.0 - (r2[0] * r2[0] + r2[1] * r2[1] + r2[2] * r2[2])
        m01 = -(r1[0] * r2[0] + r1[1] * r2[1] + r1[2] * r2[2])
        mean, half = 0.5 * (m00 + m11), 0.5 * (m00 - m11)
        rad = math.sqrt(half * half + m01 * m01)
        if abs(mean - rad) > bound:
            continue
        if mean + rad <= bound:
            starts = [(r1, r2)]
        else:
            # eigenvector of the larger eigenvalue mean + rad, scaled to its square root
            e = np.array([rad + half, m01] if half >= 0.0 else [m01, rad - half])
            c = e * math.sqrt((mean + rad) / (e[0] * e[0] + e[1] * e[1]))
            starts = [(r1 + c[0] * normal, r2 + c[1] * normal), (r1 - c[0] * normal, r2 - c[1] * normal)]
        for row1, row2 in starts:
            q = matrix_to_quat(np.vstack([row1, row2, np.cross(row1, row2)]), atol=math.inf)
            matrix, res = residual(q, points)
            if tol.geom_abs < res <= screen:
                q = matrix_to_quat(gauss_newton(vertices, matrix, points), atol=math.inf)
                matrix, res = residual(q, points)
            if res <= tol.geom_abs:
                out.append(SolveCandidate(sigma, q, matrix, res, planar))
    return dedupe_rotations(out, tol.dedupe)


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
    """_gate on one batch of starts with a row on either side of its tolerance."""

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

        rows = [
            ("exact", eye, shadow, True),
            ("nan", nan, shadow, False),
            ("inf", inf, shadow, False),
            # the first two rows of diag(1, 1, -1) complete to the identity
            ("det -1 rows", np.diag([1.0, 1.0, -1.0])[:2], shadow, True),
            ("residual below", eye, shifted(0.99e-8), True),
            ("residual above", eye, shifted(1.01e-8), False),
        ]
        sigmas = list(ALL_PERMUTATIONS[: len(rows)])
        out = _gate(
            vertices,
            [m.tolist() for _, m, _, _ in rows],
            sigmas,
            np.array([points for _, _, points, _ in rows]),
            0.0,  # no start is refined
            False,
            DEFAULT_TOLERANCES,
        )
        kept = [name for (name, *_), sigma in zip(rows, sigmas) if sigma in {c.sigma for c in out}]
        assert kept == [name for name, _, _, ok in rows if ok]
        for cand in out:
            assert cand.residual <= DEFAULT_TOLERANCES.geom_abs
            assert not cand.matrix.flags.writeable
            assert np.abs(cand.matrix.T @ cand.matrix - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(cand.matrix) - 1.0) <= 1e-12

    def test_a_start_inside_the_screen_is_refined(self):
        tetra = four_cycle_instance().tetrahedron
        truth = quat_to_matrix(random_unit_quaternion(np.random.default_rng(59)))
        shadow = (tetra.vertices @ truth.T)[:, :2]
        off = quat_to_matrix(UnitQuaternion.normalized(1.0, 3e-6, -2e-6, 4e-6)) @ truth
        start = [off[:2].tolist()]
        args = (tetra.vertices, start, [ALL_PERMUTATIONS[0]], shadow[None])
        (cand,) = _gate(*args, 1e-3, False, DEFAULT_TOLERANCES)
        assert np.linalg.norm(cand.matrix - truth) <= 1e-12
        assert cand.residual <= 1e-13
        assert _gate(*args, 1e-6, False, DEFAULT_TOLERANCES) == []


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
            0x1.3ebfe450919e1p-1 0x1.db36c5f4a13b5p-2 0x1.409235890c59dp-1
            0x1.22a15f254e6d8p-4
            0x1.a5a97a8c810e5p-3 0x1.f89c4c9d0c179p-2 0x1.b0dde3224d668p-1
            0x1.56c5b9c0e73b2p-1 0x1.1e4f246660020p-1 -0x1.f4b652a6706e1p-2
            -0x1.6d6defd84737fp-1 0x1.55571642b14ffp-1 -0x1.b7dbb3b0d42a7p-3
            0x1.2d24fce07d7a7p-50
            """),
    ],
    "noisy": [
        ((1, 2, 3, 4), False, """
            0x1.019e4328972fap-2 0x1.3a0235d524fe2p-1 0x1.625cf24ef83dep-1
            0x1.246bf115992ccp-2
            -0x1.f036560506435p-4 0x1.6917c75c03ddep-1 0x1.65a4a6cfc418ap-1
            0x1.fc3a598a0fbf6p-1 0x1.5aa7c86893c4bp-4 0x1.63245ca8b96ccp-4
            0x1.0a453a6cee000p-9 0x1.6862e35da8be8p-1 -0x1.6bae9bf5360cep-1
            0x1.7a8679c791addp-32
            """),
    ],
    "ambiguous": [
        ((1, 2, 3, 4), True, """
            0x1.0000000000000p+0 -0x1.ffffffffffffcp-55 -0x1.7ffffffffffffp-55
            -0x1.ffffffffffffcp-56
            0x1.0000000000000p+0 0x1.ffffffffffffdp-55 -0x1.7ffffffffffffp-54
            -0x1.ffffffffffffbp-55 0x1.0000000000000p+0 0x1.ffffffffffffcp-54
            0x1.7ffffffffffffp-54 -0x1.ffffffffffffcp-54 0x1.0000000000000p+0
            0x1.176d9090c79a8p-52
            """),
        ((1, 2, 3, 4), True, """
            0x1.13be66f531526p-2 -0x1.ad9207674adb1p-1 0x1.e42aef7b4cd53p-2
            0x1.311f98db81e8dp-55
            0x1.1b1367d0943f5p-1 -0x1.963810e75dbc2p-1 0x1.04c11cec036b1p-2
            -0x1.963810e75dbc2p-1 -0x1.a1a5803945d47p-2 0x1.ceb35d19128a4p-2
            -0x1.04c11cec036b3p-2 -0x1.ceb35d19128a2p-2 -0x1.b5bf584c0eaaep-1
            0x1.ad5336963eefcp-52
            """),
        ((2, 1, 4, 3), True, """
            0x1.df126d8e9684ap-56 -0x1.4b44f1404dc6ep-1 0x1.8663efc604794p-1
            -0x1.617090b27249cp-54
            -0x1.4d52964aa5710p-3 -0x1.f92c5976dcb2ap-1 0x1.3ffffffffffffp-53
            -0x1.f92c5976dcb2ap-1 0x1.4d52964aa5710p-3 -0x1.8000000000001p-54
            0x1.12b77421d1d2cp-54 -0x1.5afb760149724p-53 -0x1.0000000000000p+0
            0x1.c000000000000p-52
            """),
        ((2, 1, 4, 3), True, """
            0x1.ce855a5235599p-1 0x1.64d1718de2337p-3 -0x1.a47fb5bf66294p-3
            -0x1.55d1356ecb28bp-2
            0x1.62bb0a6a856b5p-1 0x1.1027346393967p-1 -0x1.f2f867c8c1d30p-2
            -0x1.596a685472a4bp-1 0x1.6ed0cc38cf9b3p-1 -0x1.6bf0f9126387cp-3
            0x1.04c11cec036adp-2 0x1.ceb35d19128a0p-2 0x1.b5bf584c0eab2p-1
            0x1.cd82b446159f3p-52
            """),
    ],
    "four-cycle": [
        ((1, 2, 3, 4), False, """
            0x1.0000000000000p+0 0x1.ccfaf75b5be96p-53 -0x1.811342272e8e0p-55
            -0x1.20d1769ae253ap-51
            0x1.0000000000000p+0 0x1.20d1769ae253ap-50 -0x1.811342272e8f0p-54
            -0x1.20d1769ae253ap-50 0x1.0000000000000p+0 -0x1.ccfaf75b5be95p-52
            0x1.811342272e8d0p-54 0x1.ccfaf75b5be97p-52 0x1.0000000000000p+0
            0x1.e87573f6c42c5p-48
            """),
        ((2, 3, 4, 1), False, """
            0x1.bb67ae8584cacp-1 0x1.6a09e667f3bcdp-2 0x1.279a74590331bp-54
            0x1.6a09e667f3bc6p-2
            0x1.8000000000005p-1 -0x1.3988e1409212ap-1 0x1.ffffffffffffbp-3
            0x1.3988e1409212ap-1 0x1.0000000000005p-1 -0x1.3988e14092130p-1
            0x1.ffffffffffff3p-3 0x1.3988e14092130p-1 0x1.8000000000001p-1
            0x1.09eeacab398f3p-48
            """),
    ],
    "planar": [
        ((1, 2, 3, 4), True, """
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.2a46c6ca29b50p-55
            0x1.0000000000000p+0 0x0.0p+0 0x1.2a46c6ca29b50p-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            0x1.2a46c6ca29b50p-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.2a46c6ca29b50p-53
            """),
        ((1, 2, 3, 4), True, """
            0x1.0000000000000p+0 0x0.0p+0 0x1.2a46c6ca29b52p-55
            0x0.0p+0
            0x1.0000000000000p+0 0x0.0p+0 0x1.2a46c6ca29b52p-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            -0x1.2a46c6ca29b52p-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.2a46c6ca29b52p-53
            """),
        ((1, 3, 2, 4), True, """
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.2a46c6ca29b50p-55
            0x1.0000000000000p+0 0x0.0p+0 0x1.2a46c6ca29b50p-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            0x1.2a46c6ca29b50p-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.2a46c6ca29b50p-53
            """),
        ((1, 3, 2, 4), True, """
            0x1.0000000000000p+0 0x0.0p+0 0x1.2a46c6ca29b52p-55
            0x0.0p+0
            0x1.0000000000000p+0 0x0.0p+0 0x1.2a46c6ca29b52p-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            -0x1.2a46c6ca29b52p-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.2a46c6ca29b52p-53
            """),
        ((4, 2, 3, 1), True, """
            0x1.2a46c6ca29b50p-55 -0x0.0p+0 -0x1.0000000000000p+0
            -0x0.0p+0
            -0x1.0000000000000p+0 0x0.0p+0 -0x1.2a46c6ca29b50p-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.2a46c6ca29b50p-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.2a46c6ca29b50p-53
            """),
        ((4, 2, 3, 1), True, """
            -0x0.0p+0 0x1.2a46c6ca29b52p-55 -0x0.0p+0
            -0x1.0000000000000p+0
            -0x1.0000000000000p+0 -0x0.0p+0 -0x1.2a46c6ca29b52p-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            -0x1.2a46c6ca29b52p-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.2a46c6ca29b52p-53
            """),
        ((4, 3, 2, 1), True, """
            0x1.2a46c6ca29b50p-55 -0x0.0p+0 -0x1.0000000000000p+0
            -0x0.0p+0
            -0x1.0000000000000p+0 0x0.0p+0 -0x1.2a46c6ca29b50p-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.2a46c6ca29b50p-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.2a46c6ca29b50p-53
            """),
        ((4, 3, 2, 1), True, """
            -0x0.0p+0 0x1.2a46c6ca29b52p-55 -0x0.0p+0
            -0x1.0000000000000p+0
            -0x1.0000000000000p+0 -0x0.0p+0 -0x1.2a46c6ca29b52p-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            -0x1.2a46c6ca29b52p-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.2a46c6ca29b52p-53
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
            0x1.019e43284ccaep-2 0x1.3a0235d5312d2p-1 0x1.625cf24e4da5ep-1
            0x1.246bf118e14d1p-2
            -0x1.f0365605429cap-4 0x1.6917c75a855dfp-1 0x1.65a4a6d144fa3p-1
            0x1.fc3a598a0d7a2p-1 0x1.5aa7c858a60d3p-4 0x1.63245cb915a43p-4
            0x1.0a453d0075fffp-9 0x1.6862e35f6547dp-1 -0x1.6bae9bf37ba7fp-1
            0x1.25a62cd22fe47p-31
            """),
    ],
    "ambiguous": DegenerateTetrahedronError,
    "four-cycle": [
        ((1, 2, 3, 4), False, """
            0x1.0000000000000p+0 -0x1.1e0f76c692389p-52 0x1.0638d78b5b5e8p-52
            0x1.697720b61688ap-51
            0x1.0000000000000p+0 -0x1.697720b61688bp-50 0x1.0638d78b5b5e5p-51
            0x1.697720b616889p-50 0x1.0000000000000p+0 0x1.1e0f76c69238cp-51
            -0x1.0638d78b5b5ebp-51 -0x1.1e0f76c692386p-51 0x1.0000000000000p+0
            0x1.bc8ee6b2865b9p-48
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
