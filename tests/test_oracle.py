"""The solver against the problem: unlabeled_solve checked by the branch-and-bound oracle of oracle.py.

Every other solver test compares a fast form of the algorithm with a slow
form of the same algorithm.  Here the oracle, which never calls the solver,
decides for each of the 24 relabelings whether some rotation has a largest
miss of at most geom_abs.  Completeness: every relabeling the oracle finds
has a candidate.  Soundness: no candidate lies in a relabeling the oracle
proves empty, and the I - A A^T screen drops no other relabeling, checked
also on shadows moved by 0.9 geom_abs.  The instances are drawn before any
solve and are kept whatever the solver makes of them; relabelings the
oracle leaves undecided are counted in the assertion messages, never
dropped.
"""

import math

import numpy as np
import pytest

from tetrot import (
    ALL_PERMUTATIONS,
    CLASSIFICATION_CELLS,
    DEFAULT_TOLERANCES,
    ProjectionQuad,
    apply,
    project,
    quat_from_axis_angle,
    quat_to_matrix,
    sample_cell_rotation,
    sample_tetrahedron,
    unlabeled_solve,
)
from tetrot import solver
from tetrot.instances import four_cycle_instance

from conftest import random_full_dim_tetrahedron, random_unit_quaternion, tilted_near_plane
from oracle import EMPTY, FOUND, UNDECIDED, oracle, rotation_top_rows

GEOM_ABS = DEFAULT_TOLERANCES.geom_abs
# cells of every relabeling class but the identity, whose oblique samples span a line
CELLS = [CLASSIFICATION_CELLS[i] for i in (4, 7, 10, 14, 16)]


def moved(rng, shadow, f):
    """The shadow with each point moved by f geom_abs in a random direction."""
    theta = rng.uniform(0.0, 2.0 * math.pi, 4)
    return shadow + f * GEOM_ABS * np.column_stack([np.cos(theta), np.sin(theta)])


def judged(instances):
    """(kind, tetrahedron, quad, the oracle's verdicts, the relabelings of the solver's candidates) per instance."""
    out = []
    for kind, tetra, points in instances:
        quad = ProjectionQuad(points)
        said = {sigma.images: verdict for sigma, verdict in zip(ALL_PERMUTATIONS, oracle(tetra.vertices, quad.points, GEOM_ABS))}
        out.append((kind, tetra, quad, said, {cand.sigma.images for cand in unlabeled_solve(tetra, quad)}))
    return out


@pytest.fixture(scope="module")
def verdicts():
    """For each instance, its kind, the instance itself, the oracle's verdicts and the relabelings of the
    solver's candidates.

    Five of each kind: exact shadows of generic tetrahedra, exact shadows of
    null-space samples of five cells, exact shadows of tilted near-planar
    tetrahedra, and generic shadows with each point moved by 0.5 geom_abs in
    a random direction.
    """
    rng = np.random.default_rng(2709)
    instances = []
    for _ in range(5):
        tetra = random_full_dim_tetrahedron(rng)
        instances.append(("generic", tetra, apply(random_unit_quaternion(rng), tetra.vertices)[:, :2]))
    for cell in CELLS:
        tetra = sample_tetrahedron(sample_cell_rotation(cell, rng), cell.perm_class, rng)
        instances.append(("cell", tetra, project(tetra).points))
    for _ in range(5):
        tetra, truth = tilted_near_plane(rng)
        instances.append(("near-planar", tetra, (tetra.vertices @ truth.T)[:, :2]))
    for _ in range(5):
        tetra = random_full_dim_tetrahedron(rng)
        instances.append(("noisy", tetra, moved(rng, apply(random_unit_quaternion(rng), tetra.vertices)[:, :2], 0.5)))
    return judged(instances)


@pytest.fixture(scope="module")
def far_verdicts():
    """As verdicts, for 20 generic shadows with each point moved by 0.9 geom_abs.

    Only the screen test reads them: at 0.9 geom_abs the fit can lose the
    true relabeling, which the completeness test would count.
    """
    rng = np.random.default_rng(3409)
    instances = []
    for _ in range(20):
        tetra = random_full_dim_tetrahedron(rng)
        instances.append(("far", tetra, moved(rng, apply(random_unit_quaternion(rng), tetra.vertices)[:, :2], 0.9)))
    return judged(instances)


def tally(verdicts) -> str:
    counts = {verdict: sum(list(said.values()).count(verdict) for *_, said, _ in verdicts)
              for verdict in (FOUND, EMPTY, UNDECIDED)}
    return f"{len(verdicts)} instances, relabelings {counts}"


class TestAgainstTheOracle:
    def test_every_relabeling_the_oracle_finds_has_a_candidate(self, verdicts):
        lost = [(index, kind, images) for index, (kind, _, _, said, solved) in enumerate(verdicts)
                for images, verdict in said.items() if verdict == FOUND and images not in solved]
        assert lost == [], tally(verdicts)

    def test_no_candidate_lies_in_a_relabeling_the_oracle_proves_empty(self, verdicts):
        unsound = [(index, kind, images) for index, (kind, _, _, said, solved) in enumerate(verdicts)
                   for images in solved if said[images] == EMPTY]
        assert unsound == [], tally(verdicts)

    def test_the_oracle_decides_every_instance(self, verdicts):
        # every shadow is of a rotation, so its own relabeling at least is found
        assert len(verdicts) == 20
        assert all(FOUND in said.values() for *_, said, _ in verdicts), tally(verdicts)
        assert sum(list(said.values()).count(UNDECIDED) for *_, said, _ in verdicts) <= 2, tally(verdicts)

    def test_the_screen_drops_only_relabelings_the_oracle_proves_empty(self, verdicts, far_verdicts, monkeypatch):
        # a fitted row to which the first _starts call gives no start was dropped by the
        # I - A A^T screen, before the gate; the oracle must prove it empty
        calls, starts_of = [], solver._starts

        def recorded(fitted, *args, **kwargs):
            owners, starts = starts_of(fitted, *args, **kwargs)
            calls.append((list(fitted), owners))
            return owners, starts

        monkeypatch.setattr(solver, "_starts", recorded)
        for judged_instances in (verdicts, far_verdicts):
            screened, fitted = [], 0
            for index, (kind, tetra, quad, said, _) in enumerate(judged_instances):
                calls.clear()
                unlabeled_solve(tetra, quad)
                rows, owners = calls[0]
                fitted += len(rows)
                images = [ALL_PERMUTATIONS[row].images for row in rows if row not in owners]
                screened += [(index, kind, image, said[image]) for image in images]
            wrong = [entry for entry in screened if entry[3] != EMPTY]
            assert wrong == [], f"{len(screened)} of {fitted} fitted rows screened; {tally(judged_instances)}"
            assert screened, "no instance exercises the screen"


class TestOracle:
    def test_rotation_rows_are_the_axis_angle_rotation(self):
        rng = np.random.default_rng(5)
        vectors = rng.uniform(-math.pi, math.pi, (50, 3))
        vectors[0] = 0.0
        rows = rotation_top_rows(vectors)
        for vector, got in zip(vectors, rows):
            angle = float(np.linalg.norm(vector))
            axis = vector / angle if angle else np.array([0.0, 0.0, 1.0])
            np.testing.assert_allclose(got, quat_to_matrix(quat_from_axis_angle(axis, angle))[:2], atol=1e-14)

    def test_a_shadow_no_rotation_casts_is_empty_under_every_relabeling(self):
        # the four-cycle shadow stretched by 5 is wider than the tetrahedron
        inst = four_cycle_instance()
        said = oracle(inst.tetrahedron.vertices, inst.projection.points * 5.0, GEOM_ABS)
        assert said == [EMPTY] * 24

    def test_the_four_cycle_shadow_is_found_under_both_of_its_relabelings(self):
        inst = four_cycle_instance()
        said = oracle(inst.tetrahedron.vertices, inst.projection.points, GEOM_ABS)
        found = {sigma for sigma, verdict in zip(ALL_PERMUTATIONS, said) if verdict == FOUND}
        assert inst.sigma in found
        assert found == {cand.sigma for cand in unlabeled_solve(inst.tetrahedron, inst.projection)}
