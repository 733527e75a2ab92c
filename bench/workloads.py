"""Workload generators, operations and result checkers.

An *op* is one user-level call into tetrot.  Every op is generated from the
workload seed before any timing starts, and every op result goes through a
checker that returns one of three outcomes:

``ok``     the expected answer, and nothing else, came back;
``miss``   the package gave no answer (no candidate) where one exists;
``wrong``  an answer came back that is not the expected one: a wrong or extra
           candidate, a wrong dimension, a bad shadow residual, a non-zero
           exit code or a report with the wrong content.

Wrong answers count as failed ops.  Misses only lower the share of ok ops
(``ok_frac``): the package declined rather than erred.  Ops call the
package through module attributes (``solver.unlabeled_solve``, not a name
bound at import time) so the tracer in ``spans.py`` can wrap every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import benchenv
from tetrot import configspace, geom, rotation, solver
from tetrot.configspace import CLASSIFICATION_CELLS, CaseCell
from tetrot.geom import (
    CANONICAL_PERMUTATION,
    DEFAULT_TOLERANCES,
    IDENTITY_PERMUTATION,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
)
from tetrot.rotation import UnitQuaternion, quat_to_matrix

OK, MISS, WRONG = "ok", "miss", "wrong"

# Frobenius distance at which a returned matrix counts as the true rotation.
MATCH_TOL = 1e-6
# Observation noise of generic-shadows: 100x inside the default geom_abs.
SHADOW_NOISE = DEFAULT_TOLERANCES.geom_abs / 100.0

# Ops per workload pool.  One pass over a pool takes 0.5-1.5 s on a 2-core
# Xeon, so a run executes a dozen or more whole passes and outcome shares
# repeat exactly for a seed.  generic-shadows is the largest because its
# miss share (about 2%) should vary little from seed to seed.
POOL_SIZES = {"generic-shadows": 4000, "ambiguous-shadows": 840, "dimension-sweep": 4200, "cli": 200}


# ---------------------------------------------------------------- checkers


def check_unique_truth(candidates, truth: np.ndarray) -> str:
    """Exactly one candidate: the true rotation under the identity relabeling."""
    if not candidates:
        return MISS
    if len(candidates) != 1:
        return WRONG
    cand = candidates[0]
    if cand.sigma != IDENTITY_PERMUTATION:
        return WRONG
    return OK if np.linalg.norm(cand.matrix - truth) <= MATCH_TOL else WRONG


def check_contains(candidates, sigma: Permutation4, truth: np.ndarray, geom_abs: float) -> str:
    """The cell rotation is among the candidates and every residual is in tolerance."""
    if any(c.residual > geom_abs for c in candidates):
        return WRONG
    if any(c.sigma == sigma and np.linalg.norm(c.matrix - truth) <= MATCH_TOL for c in candidates):
        return OK
    return MISS if not candidates else WRONG


def check_dimension(dim: int, expected: int) -> str:
    return OK if dim == expected else WRONG


def check_residual(residual: float, geom_abs: float) -> str:
    return OK if residual <= geom_abs else WRONG


def check_cli(returncode: int, stdout: str, expect) -> str:
    """Exit code 0 and a report for which ``expect(report)`` holds."""
    if returncode != 0:
        return WRONG
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return WRONG
    return OK if expect(report) else WRONG


def worst(*outcomes: str) -> str:
    for outcome in (WRONG, MISS):
        if outcome in outcomes:
            return outcome
    return OK


# --------------------------------------------------------------------- ops


@dataclass(frozen=True, eq=False)
class UnlabeledOp:
    """generic-shadows: recover the one true rotation of a noisy shadow."""

    tetra: Tetrahedron
    quad: ProjectionQuad
    truth: np.ndarray

    def run(self):
        return solver.unlabeled_solve(self.tetra, self.quad)

    def check(self, result) -> str:
        return check_unique_truth(result, self.truth)


@dataclass(frozen=True, eq=False)
class LabeledCheckOp:
    """generic-shadows: both labeled routes must return the true rotation."""

    tetra: Tetrahedron
    quad: ProjectionQuad
    truth: np.ndarray

    def run(self):
        return solver.labeled_solve(self.tetra, self.quad), solver.reconstruct_geometric(self.tetra, self.quad)

    def check(self, result) -> str:
        linear, geometric = result
        return worst(check_unique_truth(linear, self.truth), check_unique_truth(geometric, self.truth))


@dataclass(frozen=True, eq=False)
class AmbiguousOp:
    """ambiguous-shadows: the cell rotation must be among the candidates."""

    tetra: Tetrahedron
    quad: ProjectionQuad
    sigma: Permutation4
    truth: np.ndarray

    def run(self):
        return solver.unlabeled_solve(self.tetra, self.quad)

    def check(self, result) -> str:
        return check_contains(result, self.sigma, self.truth, DEFAULT_TOLERANCES.geom_abs)


@dataclass(frozen=True, eq=False)
class DimensionOp:
    """dimension-sweep: the rank decision of one cell rotation."""

    q: UnitQuaternion
    cell: CaseCell

    def run(self):
        return configspace.config_dimension(self.q, self.cell.perm_class)

    def check(self, result) -> str:
        return check_dimension(result, self.cell.expected_dim)


@dataclass(frozen=True, eq=False)
class SampleOp:
    """dimension-sweep: one null-space sample and the ``sample`` command's residual."""

    q: UnitQuaternion
    cell: CaseCell
    seed: int

    def run(self):
        tetra = configspace.sample_tetrahedron(self.q, self.cell.perm_class, self.seed)
        shadow = geom.project(tetra)
        rotated = rotation.apply(self.q, tetra.vertices)[:, :2]
        reordered = shadow.points[list(CANONICAL_PERMUTATION[self.cell.perm_class].zero_based())]
        return float(np.max(np.linalg.norm(rotated - reordered, axis=1)))

    def check(self, result) -> str:
        return check_residual(result, DEFAULT_TOLERANCES.geom_abs)


@dataclass(frozen=True, eq=False)
class CliOp:
    """cli: one command through ``tetrot.cli.main`` with stdout captured."""

    argv: tuple[str, ...]
    expect: object  # callable(report) -> bool

    def run(self):
        from tetrot import cli  # imported by the first op, so set-up time includes it

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(list(self.argv))
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code if isinstance(exc.code, int) else 2
        return code, buffer.getvalue()

    def check(self, result) -> str:
        return check_cli(*result, self.expect)


# -------------------------------------------------------------- generators


def _random_tetrahedron(rng: np.random.Generator) -> Tetrahedron:
    while True:
        tetra = Tetrahedron(rng.standard_normal((4, 3)))
        if tetra.full_dimensional():
            return tetra


def _random_rotation(rng: np.random.Generator) -> UnitQuaternion:
    """Uniform on SO(3): a normalized Gaussian quaternion."""
    return UnitQuaternion.normalized(*rng.standard_normal(4))


def _spans_a_plane(tetra: Tetrahedron) -> bool:
    """The solver's own precondition: the first three vertices span a plane."""
    s = np.linalg.svd(tetra.vertices[:3], compute_uv=False)
    return bool(s[0] > 0.0 and s[1] > DEFAULT_TOLERANCES.rank_rel * s[0])


def generic_shadows(seed: int, n: int) -> list:
    """Random tetrahedra seen through the noisy shadow of a random rotation.

    Nine ops in ten are unlabeled solves, the tenth a labeled cross-check.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(n):
        tetra = _random_tetrahedron(rng)
        truth = quat_to_matrix(_random_rotation(rng))
        points = (tetra.vertices @ truth.T)[:, :2] + rng.normal(0.0, SHADOW_NOISE, (4, 2))
        kind = LabeledCheckOp if i % 10 == 9 else UnlabeledOp
        ops.append(kind(tetra, ProjectionQuad(points), truth))
    return ops


def ambiguous_shadows(seed: int, n: int) -> list:
    """Null-space samples of every classification cell, seen through their own shadow.

    Samples spanning less than a plane are dropped: the solver rejects them
    by contract.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    draws = 0
    while len(ops) < n:
        cell = CLASSIFICATION_CELLS[draws % len(CLASSIFICATION_CELLS)]
        draws += 1
        q = configspace.sample_cell_rotation(cell, rng)
        tetra = configspace.sample_tetrahedron(q, cell.perm_class, rng)
        if not _spans_a_plane(tetra):
            continue
        sigma = CANONICAL_PERMUTATION[cell.perm_class]
        ops.append(AmbiguousOp(tetra, geom.project(tetra), sigma, quat_to_matrix(q)))
    return ops


def dimension_sweep(seed: int, n: int) -> list:
    """Cell rotations, round-robin over all cells; one op in five samples a tetrahedron."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(n):
        cell = CLASSIFICATION_CELLS[i % len(CLASSIFICATION_CELLS)]
        q = configspace.sample_cell_rotation(cell, rng)
        if i % 5 == 4:
            ops.append(SampleOp(q, cell, int(rng.integers(2**32))))
        else:
            ops.append(DimensionOp(q, cell))
    return ops


def _close(a, b) -> bool:
    return float(np.linalg.norm(np.asarray(a, dtype=float) - b)) <= MATCH_TOL


def cli_commands(seed: int, workdir: Path, n: int) -> list:
    """CLI commands cycling through solve, solve --labeled, analyze,
    sample --trials 5 and reproduce four-cycle, on JSON files written to
    ``workdir``; every five commands get fresh inputs."""
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[CliOp] = []
    for i in range(0, n, 5):
        ops.extend(_cli_round(rng, workdir, i // 5))
    return ops[:n]


def _cli_round(rng: np.random.Generator, workdir: Path, index: int) -> list:
    def write(kind: str, obj) -> str:
        path = workdir / f"{index:03d}-{kind}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    tetra = _random_tetrahedron(rng)
    truth = quat_to_matrix(_random_rotation(rng))
    tet_file = write("tetrahedron", {"vertices": tetra.vertices.tolist()})
    proj_file = write("projection", {"points": (tetra.vertices @ truth.T)[:, :2].tolist()})

    cells = CLASSIFICATION_CELLS
    analyze_cell = cells[int(rng.integers(len(cells)))]
    analyze_q = configspace.sample_cell_rotation(analyze_cell, rng)
    analyze_file = write("analyze", {"quaternion": list(analyze_q.as_array())})
    sample_cell = cells[int(rng.integers(len(cells)))]
    sample_q = configspace.sample_cell_rotation(sample_cell, rng)
    sample_file = write("sample", {"quaternion": list(sample_q.as_array())})
    sample_seed = int(rng.integers(2**32))

    def solved(labeled: bool):
        def expect(report) -> bool:
            cands = report.get("candidates", [])
            return (
                report.get("command") == "solve"
                and report.get("labeled") is labeled
                and len(cands) == 1
                and cands[0]["sigma"] == [1, 2, 3, 4]
                and _close(cands[0]["matrix"], truth)
            )

        return expect

    def analyzed(report) -> bool:
        dim = analyze_cell.expected_dim
        return (
            report.get("perm_class") == analyze_cell.perm_class.value
            and report.get("axis_class") == analyze_cell.axis_class.value
            and report.get("computed_dim") == dim
            and report.get("predicted_dim") == dim
            and report.get("rank") == 9 - dim
        )

    def sampled(report) -> bool:
        samples = report.get("samples", [])
        return (
            report.get("perm_class") == sample_cell.perm_class.value
            and report.get("seed") == sample_seed
            and len(samples) == 5
            and all(s["ok"] and s["match_residual"] <= DEFAULT_TOLERANCES.geom_abs for s in samples)
        )

    def reproduced(report) -> bool:
        return (
            report.get("name") == "four-cycle"
            and report.get("ok") is True
            and report.get("expected_sigma") == [2, 3, 4, 1]
            and report.get("matrix_error", 1.0) <= 1e-10
        )

    return [
        CliOp(("solve", "--tetrahedron", tet_file, "--projection", proj_file), solved(False)),
        CliOp(("solve", "--tetrahedron", tet_file, "--projection", proj_file, "--labeled"), solved(True)),
        CliOp(("analyze", "--rotation", analyze_file, "--perm-class", analyze_cell.perm_class.value), analyzed),
        CliOp(
            ("sample", "--rotation", sample_file, "--perm-class", sample_cell.perm_class.value,
             "--trials", "5", "--seed", str(sample_seed)),
            sampled,
        ),
        CliOp(("reproduce", "four-cycle"), reproduced),
    ]


GENERATORS = {
    "generic-shadows": generic_shadows,
    "ambiguous-shadows": ambiguous_shadows,
    "dimension-sweep": dimension_sweep,
    "cli": lambda seed, n: cli_commands(seed, benchenv.OUT / f"cli-{seed}", n),
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, n: int | None = None) -> list:
    """The op pool of a workload; ``n`` truncates it (the first ops are the same)."""
    return GENERATORS[workload](seed, POOL_SIZES[workload] if n is None else n)
