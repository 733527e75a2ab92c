"""Pins of the batched relabeling fit behind unlabeled_solve.

The definition tests spell out what unlabeled_solve means: the labeled
solve of every relabeling that survives the norm test, merged by
dedupe_rotations; on a planar tetrahedron, each branch completed from two
least-squares solves of its own.  The golden tests fix the exact bits of
the output of unlabeled_solve, labeled_solve and reconstruct_geometric on
five instances, so that a change in the last bits of any candidate fails.
The gate tests feed the shared snap-and-residual gate matrices on either
side of each of its tolerances.
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
from tetrot.solver import _ORTHO_ATOL, _SNAP_ATOL, _gate

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


def per_branch_planar_solve(tetra, quad):
    """unlabeled_solve on a planar tetrahedron, one branch at a time.

    Each surviving relabeling gets two least-squares solves of its own for
    the in-plane rows, its sign completions along the plane normal, and
    for each completion a snap by matrix_to_quat and a residual test.
    """
    p3 = tetra.vertices[:3]
    _, _, vt = np.linalg.svd(p3)
    basis, normal = vt[:2], vt[2]
    coords = p3 @ basis.T
    out = []
    for sigma in prune_permutations(tetra.vertices, quad):
        points = quad.points[list(sigma.zero_based())]
        v1b, *_ = np.linalg.lstsq(coords, points[:3, 0], rcond=None)
        v2b, *_ = np.linalg.lstsq(coords, points[:3, 1], rcond=None)
        v1 = v1b @ basis
        v2 = v2b @ basis
        s2 = 1.0 - float(v1 @ v1)
        t2 = 1.0 - float(v2 @ v2)
        if s2 < -_ORTHO_ATOL or t2 < -_ORTHO_ATOL:
            continue
        s0, t0 = math.sqrt(max(s2, 0.0)), math.sqrt(max(t2, 0.0))
        matrices = []
        for s in (s0, -s0):
            for t in (t0, -t0):
                if abs(float(v1 @ v2) + s * t) > _ORTHO_ATOL:
                    continue
                r1, r2 = v1 + s * normal, v2 + t * normal
                m = np.vstack([r1, r2, np.cross(r1, r2)])
                if all(np.linalg.norm(m - seen) > DEFAULT_TOLERANCES.dedupe for seen in matrices):
                    matrices.append(m)
        for m in matrices:
            try:
                q = matrix_to_quat(m, atol=_SNAP_ATOL)
            except ValueError:
                continue
            snapped = quat_to_matrix(q)
            residual = float(np.max(np.linalg.norm((tetra.vertices @ snapped.T)[:, :2] - points, axis=1)))
            if residual <= DEFAULT_TOLERANCES.geom_abs:
                out.append(SolveCandidate(sigma, q, snapped, residual, True))
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
            same_bits(got, per_branch_planar_solve(tetra, quad))
            count += 1
            branches += len(got)
        assert count >= 40
        assert branches >= 200


class TestGate:
    """_gate on one stack with a row on either side of each tolerance."""

    @staticmethod
    def shear(e):
        # m.T @ m differs from I by exactly e in two entries; det m is 1
        m = np.eye(3)
        m[0, 1] = e
        return m

    def test_only_rows_within_every_tolerance_come_back(self):
        tetra = four_cycle_instance().tetrahedron
        vertices = tetra.vertices
        shadow = vertices[:, :2]
        nan = np.eye(3)
        nan[1, 2] = np.nan
        inf = np.eye(3)
        inf[2, 0] = np.inf

        def shifted(d):
            points = shadow.copy()
            points[3, 0] += d
            return points

        def own_shadow(m):
            # the shadow of the rotation m snaps to, so that only the tested
            # tolerance can reject the row
            snapped = quat_to_matrix(matrix_to_quat(m, atol=1.0))
            return (vertices @ snapped.T)[:, :2]

        rows = [
            ("exact", np.eye(3), shadow, True),
            ("nan", nan, shadow, False),
            ("inf", inf, shadow, False),
            ("ortho below", self.shear(0.99e-6), own_shadow(self.shear(0.99e-6)), True),
            ("ortho above", self.shear(1.01e-6), own_shadow(self.shear(1.01e-6)), False),
            ("det -1", np.diag([1.0, 1.0, -1.0]), shadow, False),
            ("residual below", np.eye(3), shifted(0.99e-8), True),
            ("residual above", np.eye(3), shifted(1.01e-8), False),
        ]
        sigmas = list(ALL_PERMUTATIONS[: len(rows)])
        # The NaN and inf rows make NaN products, which numpy warns about.
        with np.errstate(invalid="ignore"):
            out = _gate(
                vertices,
                np.array([points for _, _, points, _ in rows]),
                sigmas,
                list(range(len(rows))),
                [m.tolist() for _, m, _, _ in rows],
                False,
                DEFAULT_TOLERANCES,
            )
        kept = [name for (name, *_), sigma in zip(rows, sigmas) if sigma in {c.sigma for c in out}]
        assert kept == [name for name, _, _, ok in rows if ok]
        for cand in out:
            assert cand.residual <= DEFAULT_TOLERANCES.geom_abs
            assert not cand.matrix.flags.writeable


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
            0x1.3ebfe450919e4p-1 0x1.db36c5f4a13b2p-2 0x1.409235890c59bp-1
            0x1.22a15f254e6c6p-4
            0x1.a5a97a8c810fbp-3 0x1.f89c4c9d0c178p-2 0x1.b0dde3224d669p-1
            0x1.56c5b9c0e73acp-1 0x1.1e4f246660024p-1 -0x1.f4b652a6706ebp-2
            -0x1.6d6defd847383p-1 0x1.55571642b14fep-1 -0x1.b7dbb3b0d428cp-3
            0x1.6a09e667f3bcdp-52
            """),
    ],
    "noisy": [
        ((1, 2, 3, 4), False, """
            0x1.019e4328972fdp-2 0x1.3a0235d524fe1p-1 0x1.625cf24ef83dfp-1
            0x1.246bf115992c8p-2
            -0x1.f03656050643cp-4 0x1.6917c75c03ddfp-1 0x1.65a4a6cfc418ap-1
            0x1.fc3a598a0fbf5p-1 0x1.5aa7c86893c74p-4 0x1.63245ca8b96acp-4
            0x1.0a453a6ceda80p-9 0x1.6862e35da8be6p-1 -0x1.6bae9bf5360cep-1
            0x1.7a8658fe58c17p-32
            """),
    ],
    "ambiguous": [
        ((1, 2, 3, 4), True, """
            0x1.13be66f531523p-2 -0x1.ad9207674adb0p-1 0x1.e42aef7b4cd56p-2
            -0x1.311f98db81e8ep-54
            0x1.1b1367d0943f2p-1 -0x1.963810e75dbc6p-1 0x1.04c11cec036b4p-2
            -0x1.963810e75dbc6p-1 -0x1.a1a5803945d44p-2 0x1.ceb35d191289ep-2
            -0x1.04c11cec036b0p-2 -0x1.ceb35d19128a0p-2 -0x1.b5bf584c0eab0p-1
            0x1.94c583ada5b53p-52
            """),
        ((1, 2, 3, 4), True, """
            0x1.0000000000000p+0 -0x0.0p+0 -0x1.c000000000001p-54
            -0x1.3000000000000p-52
            0x1.0000000000000p+0 0x1.3000000000000p-51 -0x1.c000000000001p-53
            -0x1.3000000000000p-51 0x1.0000000000000p+0 0x1.0a00000000001p-104
            0x1.c000000000001p-53 0x1.0a00000000001p-104 0x1.0000000000000p+0
            0x1.99ccc999fff00p-52
            """),
        ((2, 1, 4, 3), True, """
            0x1.804976652387ep-56 -0x1.4b44f1404dc6ep-1 0x1.8663efc604795p-1
            -0x1.252c9b6a916a1p-52
            -0x1.4d52964aa5714p-3 -0x1.f92c5976dcb2cp-1 0x1.a000000000001p-52
            -0x1.f92c5976dcb2cp-1 0x1.4d52964aa5714p-3 -0x1.a000000000000p-52
            0x1.56bf422969b63p-52 -0x1.de28cf37bcec4p-52 -0x1.0000000000000p+0
            0x1.1e3779b97f4a8p-51
            """),
        ((2, 1, 4, 3), True, """
            0x1.ce855a523559ap-1 0x1.64d1718de2338p-3 -0x1.a47fb5bf66290p-3
            -0x1.55d1356ecb28dp-2
            0x1.62bb0a6a856b5p-1 0x1.1027346393968p-1 -0x1.f2f867c8c1d2ap-2
            -0x1.596a685472a4ap-1 0x1.6ed0cc38cf9b1p-1 -0x1.6bf0f9126387fp-3
            0x1.04c11cec036a7p-2 0x1.ceb35d191289ep-2 0x1.b5bf584c0eab0p-1
            0x1.617398f2aaa48p-51
            """),
    ],
    "four-cycle": [
        ((1, 2, 3, 4), False, """
            0x1.0000000000000p+0 -0x1.eae584a8a45e7p-55 0x0.0p+0
            0x1.119dc7afdb7b4p-53
            0x1.0000000000000p+0 -0x1.119dc7afdb7b4p-52 -0x1.0656a811ea4c8p-106
            0x1.119dc7afdb7b4p-52 0x1.0000000000000p+0 0x1.eae584a8a45e7p-54
            -0x1.0656a811ea4c8p-106 -0x1.eae584a8a45e7p-54 0x1.0000000000000p+0
            0x1.01fe03f61bad0p-49
            """),
        ((2, 3, 4, 1), False, """
            0x1.bb67ae8584caap-1 0x1.6a09e667f3bcap-2 0x0.0p+0
            0x1.6a09e667f3bd3p-2
            0x1.7fffffffffffcp-1 -0x1.3988e14092134p-1 0x1.0000000000003p-2
            0x1.3988e14092134p-1 0x1.ffffffffffffcp-2 -0x1.3988e1409212cp-1
            0x1.0000000000003p-2 0x1.3988e1409212cp-1 0x1.8000000000002p-1
            0x1.d1ed52076fbe9p-49
            """),
    ],
    "planar": [
        ((1, 2, 3, 4), True, """
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.21e418f4f37bcp-55
            0x1.0000000000000p+0 0x0.0p+0 0x1.21e418f4f37bcp-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            0x1.21e418f4f37bcp-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((1, 2, 3, 4), True, """
            0x1.0000000000000p+0 0x0.0p+0 0x1.21e418f4f37bcp-55
            0x0.0p+0
            0x1.0000000000000p+0 0x0.0p+0 0x1.21e418f4f37bcp-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            -0x1.21e418f4f37bcp-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((1, 3, 2, 4), True, """
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.21e418f4f37bcp-55
            0x1.0000000000000p+0 0x0.0p+0 0x1.21e418f4f37bcp-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            0x1.21e418f4f37bcp-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((1, 3, 2, 4), True, """
            0x1.0000000000000p+0 0x0.0p+0 0x1.21e418f4f37bcp-55
            0x0.0p+0
            0x1.0000000000000p+0 0x0.0p+0 0x1.21e418f4f37bcp-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            -0x1.21e418f4f37bcp-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((4, 2, 3, 1), True, """
            -0x0.0p+0 0x1.21e418f4f37bcp-55 -0x0.0p+0
            -0x1.0000000000000p+0
            -0x1.0000000000000p+0 -0x0.0p+0 -0x1.21e418f4f37bcp-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            -0x1.21e418f4f37bcp-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((4, 2, 3, 1), True, """
            0x1.21e418f4f37bcp-55 -0x0.0p+0 -0x1.0000000000000p+0
            -0x0.0p+0
            -0x1.0000000000000p+0 0x0.0p+0 -0x1.21e418f4f37bcp-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.21e418f4f37bcp-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((4, 3, 2, 1), True, """
            -0x0.0p+0 0x1.21e418f4f37bcp-55 -0x0.0p+0
            -0x1.0000000000000p+0
            -0x1.0000000000000p+0 -0x0.0p+0 -0x1.21e418f4f37bcp-54
            0x0.0p+0 -0x1.0000000000000p+0 0x0.0p+0
            -0x1.21e418f4f37bcp-54 0x0.0p+0 0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
            """),
        ((4, 3, 2, 1), True, """
            0x1.21e418f4f37bcp-55 -0x0.0p+0 -0x1.0000000000000p+0
            -0x0.0p+0
            -0x1.0000000000000p+0 0x0.0p+0 -0x1.21e418f4f37bcp-54
            0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0
            0x1.21e418f4f37bcp-54 0x0.0p+0 -0x1.0000000000000p+0
            0x1.21e418f4f37bcp-53
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
            0x1.019e432a0044cp-2 0x1.3a0235d5a3b04p-1 0x1.625cf24da6542p-1
            0x1.246bf118a0d5cp-2
            -0x1.f03655f5a2548p-4 0x1.6917c759ea819p-1 0x1.65a4a6d2380ddp-1
            0x1.fc3a598a4ae53p-1 0x1.5aa7c851053c2p-4 0x1.63245caa8ea4dp-4
            0x1.0a453c411d681p-9 0x1.6862e3601dcbbp-1 -0x1.6bae9bf2c55c5p-1
            0x1.b738d40345ae6p-32
            """),
    ],
    "ambiguous": DegenerateTetrahedronError,
    "four-cycle": [
        ((1, 2, 3, 4), False, """
            0x1.0000000000000p+0 -0x1.e7bbb5909a6fap-51 0x1.cefd44e8bf486p-51
            0x1.697720b61688ep-51
            0x1.0000000000000p+0 -0x1.697720b616895p-50 0x1.cefd44e8bf481p-50
            0x1.697720b616887p-50 0x1.0000000000000p+0 0x1.e7bbb5909a6ffp-50
            -0x1.cefd44e8bf48bp-50 -0x1.e7bbb5909a6f5p-50 0x1.0000000000000p+0
            0x1.800bffd0017ffp-46
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
