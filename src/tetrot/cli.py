"""Command-line front end: JSON in, JSON out.

Commands
    solve        recover rotations from a tetrahedron file and a projection file
    analyze      rank and dimension report for one rotation and relabeling class
    sample       draw ambiguous tetrahedra from a null space
    verify-dims  sweep the dimension table against random rotations
    reproduce    replay a bundled worked instance and check the expected values

Exit codes: 0 success / match, 1 semantic failure (no solution or mismatch),
2 usage or parse error.  Identical arguments, including the seed, produce
byte-identical reports.

A command adds its options to its parser when it is parsed, so a run pays
only for the options of the command it runs; the top-level help and the
command list come from the names and help strings alone.  `sample` computes
the null space once per command and draws every trial from it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .configspace import (
    CLASSIFICATION_CELLS,
    case_label,
    config_dimension,
    numeric_rank,
    build_config_matrix,
    predicted_dimension,
    sample_cell_rotation,
    sample_tetrahedron,  # noqa: F401  kept in this namespace for bench/spans.py, which wraps it here
    _draw,
    _null_space,
)
from .geom import (
    CANONICAL_PERMUTATION,
    IDENTITY_PERMUTATION,
    PermClass,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    as_finite_array,
    project,
    quad_match,
)
from .instances import four_cycle_instance, norm_prune_instance, planar_instance
from .rotation import AxisClass, UnitQuaternion, apply, classify_rotation, quat_from_axis_angle
from .solver import SolveCandidate, labeled_solve, prune_permutations, unlabeled_solve

__all__ = ["RunConfig", "main"]

_REPRODUCE_NAMES = ("four-cycle", "norm-prune", "planar", "uniqueness-sweep")


@dataclass(frozen=True)
class RunConfig:
    """Resolved command invocation: tolerances, trial count and seed."""

    tolerances: Tolerances
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def _load_json(path: str):
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # a decoder error, bytes that are not UTF-8, an integer too long
        raise ValueError(f"{name}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply") from None


def _numbers(obj: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """obj[key] as a finite float array of the given shape.

    Every entry must be a JSON number: numpy alone would read true, "1" and
    null as numbers, or fail on them with a TypeError.  Its magnitude must be
    at most 1e150, so that the squared norms the solver takes stay finite.
    """
    pending = [obj[key]]
    while pending:
        value = pending.pop()
        if isinstance(value, list):
            pending.extend(value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= 1e150:
            raise ValueError(f"{key} must hold only finite JSON numbers up to 1e150 in magnitude, got {value!r}")
    return as_finite_array(obj[key], shape, key)


def parse_tetrahedron(obj) -> Tetrahedron:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError('tetrahedron input must be {"vertices": [[x, y, z] * 4]}')
    return Tetrahedron(_numbers(obj, "vertices", (4, 3)))


def parse_projection(obj) -> ProjectionQuad:
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValueError('projection input must be {"points": [[x, y] * 4]}')
    return ProjectionQuad(_numbers(obj, "points", (4, 2)))


def parse_rotation(obj) -> UnitQuaternion:
    if isinstance(obj, dict) and "quaternion" in obj:
        return UnitQuaternion.normalized(*_numbers(obj, "quaternion", (4,)).tolist())
    if isinstance(obj, dict) and "axis" in obj and "angle_rad" in obj:
        axis = _numbers(obj, "axis", (3,))
        norm = float(np.linalg.norm(axis))
        if norm == 0.0:
            raise ValueError("rotation axis must be nonzero")
        return quat_from_axis_angle(axis / norm, float(_numbers(obj, "angle_rad", ())))
    raise ValueError('rotation input must carry "quaternion" or "axis" + "angle_rad"')


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return Tolerances(
        rank_rel=args.tol_rank,
        geom_abs=args.tol_geom,
        angle_abs=args.tol_angle,
    )


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        tolerances=_tolerances(args),
        trials=getattr(args, "trials", 1),
        seed=args.seed,
    )


def _candidate_json(cand: SolveCandidate) -> dict:
    return {
        "sigma": list(cand.sigma.images),
        "quaternion": list(cand.rotation.as_array()),
        "matrix": cand.matrix.tolist(),
        "residual": cand.residual,
        "planar_ambiguous": cand.planar_ambiguous,
    }


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.tetrahedron == "-" and args.projection == "-":
        raise ValueError("stdin can feed only one input, but --tetrahedron and --projection are both -")
    tetra = parse_tetrahedron(_load_json(args.tetrahedron))
    quad = parse_projection(_load_json(args.projection))
    if args.labeled:
        candidates = labeled_solve(tetra, quad, config.tolerances)
    else:
        candidates = unlabeled_solve(tetra, quad, config.tolerances)
    _emit({
        "command": "solve",
        "labeled": bool(args.labeled),
        "candidates": [_candidate_json(c) for c in candidates],
    })
    return 0 if candidates else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _config(args)
    rotation = parse_rotation(_load_json(args.rotation))
    perm_class = PermClass(args.perm_class)
    axis_class, alpha = classify_rotation(rotation, config.tolerances.angle_abs)
    if axis_class is AxisClass.NO_AXIS:
        raise ValueError("the identity rotation cannot be analyzed")
    rank = numeric_rank(build_config_matrix(rotation, perm_class), config.tolerances.rank_rel)
    computed = 9 - rank
    predicted = predicted_dimension(perm_class, axis_class, alpha, config.tolerances.angle_abs)
    _emit({
        "command": "analyze",
        "perm_class": perm_class.value,
        "axis_class": axis_class.value,
        "angle_rad": alpha,
        "case": case_label(axis_class, alpha, config.tolerances.angle_abs),
        "rank": rank,
        "computed_dim": computed,
        "predicted_dim": predicted,
    })
    return 0 if computed == predicted else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    config = _config(args)
    rotation = parse_rotation(_load_json(args.rotation))
    perm_class = PermClass(args.perm_class)
    sigma = CANONICAL_PERMUTATION[perm_class]
    # sample_tetrahedron per trial, with the null space computed once
    basis = _null_space(rotation, perm_class, config.tolerances.rank_rel, config.tolerances.angle_abs)
    samples = []
    all_ok = True
    for trial in range(config.trials):
        tetra = _draw(basis, np.random.default_rng([config.seed, trial]))
        rotated = apply(rotation, tetra.vertices)[:, :2]
        reordered = project(tetra).points[list(sigma.zero_based())]
        residual = float(np.max(np.linalg.norm(rotated - reordered, axis=1)))
        ok = residual <= config.tolerances.geom_abs
        all_ok = all_ok and ok
        samples.append({
            "vertices": tetra.vertices.tolist(),
            "match_residual": residual,
            "ok": ok,
        })
    _emit({
        "command": "sample",
        "perm_class": perm_class.value,
        "sigma": list(sigma.images),
        "quaternion": list(rotation.as_array()),
        "seed": config.seed,
        "samples": samples,
    })
    return 0 if all_ok else 1


def _cmd_verify_dims(args: argparse.Namespace) -> int:
    config = _config(args)
    cells = []
    total_mismatches = 0
    for index, cell in enumerate(CLASSIFICATION_CELLS):
        mismatches = 0
        for trial in range(config.trials):
            rng = np.random.default_rng([config.seed, index, trial])
            rotation = sample_cell_rotation(cell, rng)
            computed = config_dimension(
                rotation, cell.perm_class, config.tolerances.rank_rel, config.tolerances.angle_abs
            )
            if computed != cell.expected_dim:
                mismatches += 1
        total_mismatches += mismatches
        cells.append({
            "cell": cell.label(),
            "expected_dim": cell.expected_dim,
            "trials": config.trials,
            "mismatches": mismatches,
        })
    _emit({
        "command": "verify-dims",
        "seed": config.seed,
        "cells": cells,
        "ok": total_mismatches == 0,
    })
    return 0 if total_mismatches == 0 else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    config = _config(args)
    name = args.name
    if name == "four-cycle":
        return _reproduce_four_cycle(config)
    if name == "norm-prune":
        return _reproduce_norm_prune(config)
    if name == "planar":
        return _reproduce_planar(config)
    if name == "uniqueness-sweep":
        return _reproduce_uniqueness_sweep(config)
    raise ValueError(f"unknown instance name {name!r}")


def _reproduce_four_cycle(config: RunConfig) -> int:
    inst = four_cycle_instance()
    rotated = apply(inst.rotation, inst.tetrahedron.vertices)
    vertex_err = float(np.max(np.abs(rotated - inst.rotated_vertices)))
    candidates = unlabeled_solve(inst.tetrahedron, inst.projection, config.tolerances)
    matrix_err = math.inf
    for cand in candidates:
        if cand.sigma == inst.sigma:
            matrix_err = min(matrix_err, float(np.linalg.norm(cand.matrix - inst.matrix)))
    ok = vertex_err <= 1e-12 and matrix_err <= 1e-10
    _emit({
        "command": "reproduce",
        "name": "four-cycle",
        "expected_rotated_vertices": inst.rotated_vertices.tolist(),
        "computed_rotated_vertices": rotated.tolist(),
        "max_vertex_error": vertex_err,
        "expected_sigma": list(inst.sigma.images),
        "matrix_error": matrix_err,
        "candidates": len(candidates),
        "ok": ok,
    })
    return 0 if ok else 1


def _reproduce_norm_prune(config: RunConfig) -> int:
    inst = norm_prune_instance()
    survivors = prune_permutations(inst.vertices, inst.projection, config.tolerances.geom_abs)
    ok = survivors == [IDENTITY_PERMUTATION]
    _emit({
        "command": "reproduce",
        "name": "norm-prune",
        "survivors": [list(s.images) for s in survivors],
        "ok": ok,
    })
    return 0 if ok else 1


def _reproduce_planar(config: RunConfig) -> int:
    inst = planar_instance()
    candidates = unlabeled_solve(inst.tetrahedron, inst.projection, config.tolerances)
    swap = [c for c in candidates if c.sigma == inst.swap_sigma]
    errors = []
    for expected in inst.matrices:
        best = min(
            (float(np.linalg.norm(c.matrix - expected)) for c in swap),
            default=math.inf,
        )
        errors.append(best)
    ok = len(swap) == 2 and max(errors, default=math.inf) <= 1e-10
    _emit({
        "command": "reproduce",
        "name": "planar",
        "swap_sigma": list(inst.swap_sigma.images),
        "swap_candidates": [_candidate_json(c) for c in swap],
        "matrix_errors": errors,
        "ok": ok,
    })
    return 0 if ok else 1


def _reproduce_uniqueness_sweep(config: RunConfig) -> int:
    spurious = 0
    identity = np.eye(3)
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        tetra = Tetrahedron(rng.standard_normal((4, 3)))
        while not tetra.full_dimensional(config.tolerances.rank_rel):
            tetra = Tetrahedron(rng.standard_normal((4, 3)))
        candidates = unlabeled_solve(tetra, project(tetra), config.tolerances)
        for cand in candidates:
            if cand.residual <= 1e-8 and float(np.linalg.norm(cand.matrix - identity)) > 1e-6:
                spurious += 1
    _emit({
        "command": "reproduce",
        "name": "uniqueness-sweep",
        "trials": config.trials,
        "spurious_non_identity": spurious,
        "ok": spurious == 0,
    })
    return 0 if spurious == 0 else 1


def _add_common(parser: argparse.ArgumentParser, trials_default: int | None = None) -> None:
    parser.add_argument("--tol-rank", type=float, default=Tolerances().rank_rel,
                        help="relative singular-value cutoff for rank decisions")
    parser.add_argument("--tol-geom", type=float, default=Tolerances().geom_abs,
                        help="absolute tolerance for projected-point matches")
    parser.add_argument("--tol-angle", type=float, default=Tolerances().angle_abs,
                        help="tolerance for axis components and special angles; above pi/12 "
                             "the half-, quarter- and third-turn windows overlap, and the first "
                             "match in that order decides")
    parser.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    if trials_default is not None:
        parser.add_argument("--trials", type=int, default=trials_default,
                            help="number of random trials or samples")


def _solve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tetrahedron", required=True, help='JSON file {"vertices": ...} or -')
    parser.add_argument("--projection", required=True, help='JSON file {"points": ...} or -')
    parser.add_argument("--labeled", action="store_true",
                        help="match projection point i to vertex i instead of trying all relabelings")
    _add_common(parser)
    parser.set_defaults(func=_cmd_solve)


def _analyze_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rotation", required=True,
                        help='JSON file {"quaternion": ...} or {"axis": ..., "angle_rad": ...} or -')
    parser.add_argument("--perm-class", required=True, choices=[c.value for c in PermClass])
    _add_common(parser)
    parser.set_defaults(func=_cmd_analyze)


def _sample_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rotation", required=True)
    parser.add_argument("--perm-class", required=True, choices=[c.value for c in PermClass])
    _add_common(parser, trials_default=1)
    parser.set_defaults(func=_cmd_sample)


def _verify_dims_options(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, trials_default=100)
    parser.set_defaults(func=_cmd_verify_dims)


def _reproduce_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", choices=_REPRODUCE_NAMES)
    _add_common(parser, trials_default=100)
    parser.set_defaults(func=_cmd_reproduce)


class _CommandParser(argparse.ArgumentParser):
    """Parser of one command that adds the command's options when it first parses.

    The top-level parser hands the command's arguments to this parser's
    parse_known_args, so only the command that runs pays for its options.
    """

    def __init__(self, *args, add_options=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._add_options = add_options

    def parse_known_args(self, args=None, namespace=None):
        if self._add_options is not None:
            add_options, self._add_options = self._add_options, None
            add_options(self)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrot",
        description="Recover tetrahedron rotations from orthographic projections "
                    "and analyze the relabeling ambiguities.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    sub.add_parser("solve", help="recover rotations from tetrahedron and projection files",
                   add_options=_solve_options)
    sub.add_parser("analyze", help="rank and dimension report for one rotation",
                   add_options=_analyze_options)
    sub.add_parser("sample", help="draw ambiguous tetrahedra for a rotation and class",
                   add_options=_sample_options)
    sub.add_parser("verify-dims", help="sweep the dimension table with random rotations",
                   add_options=_verify_dims_options)
    sub.add_parser("reproduce", help="replay a bundled worked instance",
                   add_options=_reproduce_options)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
