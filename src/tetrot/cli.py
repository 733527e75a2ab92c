"""Command-line front end: JSON in, JSON out.

Commands
    solve        recover rotations from a tetrahedron file and a projection file
    analyze      rank and dimension report for one rotation and relabeling class
    sample       draw ambiguous tetrahedra from a null space
    verify-dims  sweep the dimension table against random rotations
    reproduce    replay a bundled worked instance and check the expected values

Exit codes: 0 success / match, 1 semantic failure (no solution or mismatch),
2 usage or parse error, a closed stdin or stdout included; a reader that
closes stdout early changes none of them.  Identical arguments, including
the seed, produce byte-identical reports.

`reproduce` takes the name of a worked instance as a subcommand, and its
flags follow the name; a flag given before it is refused with that order
shown, or as unrecognized if the instance does not take it.  `sample`
computes the null space once per command and draws every trial from it.

Every command's handler has the contract `(args, tol) -> (report, ok)`: it
gets the parsed arguments and the tolerances they resolve to, and returns
its report without the "command" key and its verdict.  `main` alone resolves
the tolerances, prints the report with "command" first, and maps the verdict
to exit code 0 or 1.

The parser, with every command and option, is built once on import and shared
by all threads: `main()` builds nothing, and parsing stores nothing on the
parser, so `main()` may be called from several threads at once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .configspace import (
    CLASSIFICATION_CELLS,
    case_label,
    config_dimension,
    numeric_rank,
    build_config_matrix,
    null_space_basis,
    predicted_dimension,
    sample_cell_rotation,
    sample_tetrahedron,  # noqa: F401  kept in this namespace for bench/spans.py, which wraps it here
    _draw,
    _system,
)
from .geom import (
    CANONICAL_PERMUTATION,
    DEFAULT_TOLERANCES,
    IDENTITY_PERMUTATION,
    MAX_MAGNITUDE,
    PermClass,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    as_finite_array,
    is_number,
    project,
)
from .instances import four_cycle_instance, norm_prune_instance, planar_instance
from .rotation import (
    AxisClass,
    UnitQuaternion,
    _unit_axis,
    apply,
    classify_rotation,
    quat_from_axis_angle,
    quat_to_matrix,
)
from .solver import SolveCandidate, labeled_solve, prune_permutations, unlabeled_solve

__all__ = ["main"]

# Redraws of one uniqueness-sweep trial before --tol-rank counts as admitting no tetrahedron.
_MAX_DRAWS = 1000


def _load_json(path: str):
    name = "<stdin>" if path == "-" else path
    if path == "-" and sys.stdin is None:  # Python's stdin when fd 0 was closed at start
        raise OSError("stdin is closed")
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

    Every entry must be a JSON number, by the leaf rule of as_finite_array
    (geom.is_number), with a magnitude of at most MAX_MAGNITUDE, its bound;
    the error names the first entry that is not.
    """
    pending = [obj[key]]
    while pending:
        value = pending.pop()
        if isinstance(value, list):
            pending.extend(value)
        elif not is_number(value) or not abs(value) <= MAX_MAGNITUDE:
            bound = f"{MAX_MAGNITUDE:.0e}".replace("e+", "e")
            raise ValueError(f"{key} must hold only finite JSON numbers up to {bound} in magnitude, got {value!r}")
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
        axis = _unit_axis(_numbers(obj, "axis", (3,)))
        return quat_from_axis_angle(axis, float(_numbers(obj, "angle_rad", ())))
    raise ValueError('rotation input must carry "quaternion" or "axis" + "angle_rad"')


def _config(args: argparse.Namespace) -> Tolerances:
    """The tolerances a command's options resolve to, once its --trials and --seed
    are checked; an option the command does not take keeps its default."""
    tolerances = Tolerances(
        rank_rel=getattr(args, "tol_rank", DEFAULT_TOLERANCES.rank_rel),
        geom_abs=getattr(args, "tol_geom", DEFAULT_TOLERANCES.geom_abs),
        angle_abs=getattr(args, "tol_angle", DEFAULT_TOLERANCES.angle_abs),
    )
    if getattr(args, "trials", 1) < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return tolerances


def _candidate_json(cand: SolveCandidate) -> dict:
    return {
        "sigma": list(cand.sigma.images),
        "quaternion": [cand.rotation.a, cand.rotation.b, cand.rotation.c, cand.rotation.d],
        "matrix": cand.matrix.tolist(),
        "residual": cand.residual,
        "planar_ambiguous": cand.planar_ambiguous,
    }


def _json(value, indent: str = "\n") -> str:
    """value in the bytes of json.dumps(value, indent=2, allow_nan=False), for
    value on a line that starts with indent.  Reports hold only dicts with
    string keys, lists, strings, numbers, booleans and None: a non-finite
    float raises ValueError, and any other value or key TypeError."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        items, brackets = [_json(item, inner) for item in value], "[]"
    elif isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _emit(report: dict) -> None:
    """Print the report.  A reader that closed the pipe early gets nothing more,
    and the command keeps its own exit code."""
    try:
        print(_json(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull, so that flush succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_solve(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    if args.tetrahedron == "-" and args.projection == "-":
        raise ValueError("stdin can feed only one input, but --tetrahedron and --projection are both -")
    tetra = parse_tetrahedron(_load_json(args.tetrahedron))
    quad = parse_projection(_load_json(args.projection))
    candidates = (labeled_solve if args.labeled else unlabeled_solve)(tetra, quad, tol)
    return {
        "labeled": bool(args.labeled),
        "candidates": [_candidate_json(c) for c in candidates],
    }, bool(candidates)


def _cmd_analyze(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    rotation = parse_rotation(_load_json(args.rotation))
    perm_class = PermClass(args.perm_class)
    axis_class, alpha = classify_rotation(rotation, tol.angle_abs)
    if axis_class is AxisClass.NO_AXIS:
        raise ValueError("the identity rotation cannot be analyzed")
    rank = numeric_rank(build_config_matrix(rotation, perm_class), tol.rank_rel)
    computed = 9 - rank
    predicted = predicted_dimension(perm_class, axis_class, alpha, tol.angle_abs)
    return {
        "perm_class": perm_class.value,
        "axis_class": axis_class.value,
        "angle_rad": alpha,
        "case": case_label(axis_class, alpha, tol.angle_abs),
        "rank": rank,
        "computed_dim": computed,
        "predicted_dim": predicted,
    }, computed == predicted


def _cmd_sample(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    rotation = parse_rotation(_load_json(args.rotation))
    perm_class = PermClass(args.perm_class)
    sigma = CANONICAL_PERMUTATION[perm_class]
    # sample_tetrahedron per trial, with the null space and the rotation matrix computed once
    basis = null_space_basis(_system(rotation, perm_class, tol.angle_abs), tol.rank_rel)
    transpose = quat_to_matrix(rotation).T
    order = sigma.zero_based()
    samples = []
    for trial in range(args.trials):
        tetra = _draw(basis, np.random.default_rng([args.seed, trial]))
        vertices = tetra.vertices.tolist()
        # the largest distance from rotated vertex i to the shadow of vertex sigma(i):
        # apply()'s matmul, then np.linalg.norm's sqrt(dx*dx + dy*dy) on floats
        rotated = (tetra.vertices @ transpose).tolist()
        deltas = [(r[0] - vertices[i][0], r[1] - vertices[i][1]) for r, i in zip(rotated, order)]
        residual = max(math.sqrt(dx * dx + dy * dy) for dx, dy in deltas)
        samples.append({
            "vertices": vertices,
            "match_residual": residual,
            "ok": residual <= tol.geom_abs,
        })
    return {
        "perm_class": perm_class.value,
        "sigma": list(sigma.images),
        "quaternion": [rotation.a, rotation.b, rotation.c, rotation.d],
        "seed": args.seed,
        "samples": samples,
    }, all(sample["ok"] for sample in samples)


def _cmd_verify_dims(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    cells = []
    for index, cell in enumerate(CLASSIFICATION_CELLS):
        mismatches = 0
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, index, trial])
            rotation = sample_cell_rotation(cell, rng)
            computed = config_dimension(rotation, cell.perm_class, tol.rank_rel, tol.angle_abs)
            if computed != cell.expected_dim:
                mismatches += 1
        cells.append({
            "cell": cell.label(),
            "expected_dim": cell.expected_dim,
            "trials": args.trials,
            "mismatches": mismatches,
        })
    ok = all(cell["mismatches"] == 0 for cell in cells)
    return {
        "seed": args.seed,
        "cells": cells,
        "ok": ok,
    }, ok


def _nearest_errors(candidates: list[SolveCandidate], sigma: Permutation4, expected) -> list[float | None]:
    """Per expected matrix, the Frobenius distance of the nearest candidate with
    relabeling sigma, or None (null, not an infinite error) when there is none."""
    matrices = [c.matrix for c in candidates if c.sigma == sigma]
    return [min((float(np.linalg.norm(m - e)) for m in matrices), default=None) for e in expected]


def _reproduce_four_cycle(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    inst = four_cycle_instance()
    rotated = apply(inst.rotation, inst.tetrahedron.vertices)
    vertex_err = float(np.max(np.abs(rotated - inst.rotated_vertices)))
    candidates = unlabeled_solve(inst.tetrahedron, inst.projection, tol)
    (matrix_err,) = _nearest_errors(candidates, inst.sigma, [inst.matrix])
    ok = vertex_err <= 1e-12 and matrix_err is not None and matrix_err <= 1e-10
    return {
        "name": "four-cycle",
        "expected_rotated_vertices": inst.rotated_vertices.tolist(),
        "computed_rotated_vertices": rotated.tolist(),
        "max_vertex_error": vertex_err,
        "expected_sigma": list(inst.sigma.images),
        "matrix_error": matrix_err,
        "candidates": len(candidates),
        "ok": ok,
    }, ok


def _reproduce_norm_prune(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    inst = norm_prune_instance()
    survivors = prune_permutations(inst.vertices, inst.projection, tol.geom_abs)
    ok = survivors == [IDENTITY_PERMUTATION]
    return {
        "name": "norm-prune",
        "survivors": [list(s.images) for s in survivors],
        "ok": ok,
    }, ok


def _reproduce_planar(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    inst = planar_instance()
    candidates = unlabeled_solve(inst.tetrahedron, inst.projection, tol)
    swap = [c for c in candidates if c.sigma == inst.swap_sigma]
    errors = _nearest_errors(candidates, inst.swap_sigma, inst.matrices)
    ok = len(swap) == 2 and max(errors) <= 1e-10
    return {
        "name": "planar",
        "swap_sigma": list(inst.swap_sigma.images),
        "swap_candidates": [_candidate_json(c) for c in swap],
        "matrix_errors": errors,
        "ok": ok,
    }, ok


def _reproduce_uniqueness_sweep(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    spurious = 0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        for _ in range(_MAX_DRAWS):
            tetra = Tetrahedron(rng.standard_normal((4, 3)))
            if tetra.full_dimensional(tol.rank_rel):
                break
        else:
            raise ValueError(f"no full-dimensional tetrahedron in {_MAX_DRAWS} draws at --tol-rank "
                             f"{tol.rank_rel!r}; choose a smaller --tol-rank")
        # every candidate passed the solver's gate at --tol-geom; one farther than
        # the dedupe distance from the identity is another rotation with the same shadow
        for cand in unlabeled_solve(tetra, project(tetra), tol):
            if float(np.linalg.norm(cand.matrix - np.eye(3))) > tol.dedupe:
                spurious += 1
    return {
        "name": "uniqueness-sweep",
        "trials": args.trials,
        "spurious_non_identity": spurious,
        "ok": spurious == 0,
    }, spurious == 0


# Options that several commands share, with their type, default and help.
_SHARED_OPTIONS = {
    "--tol-rank": (float, DEFAULT_TOLERANCES.rank_rel, "relative singular-value cutoff for rank decisions"),
    "--tol-geom": (float, DEFAULT_TOLERANCES.geom_abs, "absolute tolerance for projected-point matches"),
    "--tol-angle": (float, DEFAULT_TOLERANCES.angle_abs,
                    "tolerance for axis components and special angles; above pi/12 the half-, quarter- and "
                    "third-turn windows overlap, and the first match in that order decides"),
    "--seed": (int, 0, "base seed for all randomness"),
    "--trials": (int, 100, "number of random trials or samples"),
}


def _add_shared(parser: argparse.ArgumentParser, func, *options: str, **defaults) -> None:
    """Add the shared options a command reads, the function that runs it and any default of its own."""
    for option in options:
        kind, default, text = _SHARED_OPTIONS[option]
        parser.add_argument(option, type=kind, default=default, help=text)
    parser.set_defaults(func=func, **defaults)


class _UsageError(Exception):
    """A usage error on its way from error() to the parse_known_args call that words it."""


class _CommandParser(argparse.ArgumentParser):
    """Parser of a command or of a `reproduce` name, which argparse hands its
    arguments through parse_known_args.

    A usage error is worded by the call that holds the arguments, so parsing
    stores nothing on the parser and threads can share it.
    """

    _subcommands = None  # the action that holds the subcommands, set while the parser is built

    def add_subparsers(self, **kwargs):
        self._subcommands = super().add_subparsers(**kwargs)
        return self._subcommands

    def error(self, message):
        raise _UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        """Parse, or exit 2 with a usage error.  When a flag comes before the
        subcommand's name, argparse reads the flag's value as the name or finds
        no name, so the message shows the order that works instead, or names
        the flags the instance does not take."""
        try:
            return super().parse_known_args(args, namespace)
        except _UsageError as exc:
            message = str(exc)
        args = list(args or ())
        if self._subcommands is not None and args and args[0].startswith("-"):
            name = next((arg for arg in args if arg in self._subcommands.choices), "NAME")
            unread = []
            if name in args:
                args.remove(name)
                # the name's own parser exits 2 on a bad value, as it would with the flags after the name
                unread = self._subcommands.choices[name].parse_known_args(args)[1]
            if unread:
                message = f"unrecognized arguments: {' '.join(unread)}"
            else:
                message = f"flags follow the instance name, as in: {self.prog} {' '.join([name, *args])}"
        super().error(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrot",
        description="Recover tetrahedron rotations from orthographic projections "
                    "and analyze the relabeling ambiguities.",
    )
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    perm_classes = [c.value for c in PermClass]

    solve = commands.add_parser("solve", help="recover rotations from tetrahedron and projection files")
    solve.add_argument("--tetrahedron", required=True, help='JSON file {"vertices": ...} or -')
    solve.add_argument("--projection", required=True, help='JSON file {"points": ...} or -')
    solve.add_argument("--labeled", action="store_true",
                       help="match projection point i to vertex i instead of trying all relabelings")
    _add_shared(solve, _cmd_solve, "--tol-rank", "--tol-geom")

    analyze = commands.add_parser("analyze", help="rank and dimension report for one rotation")
    analyze.add_argument("--rotation", required=True,
                         help='JSON file {"quaternion": ...} or {"axis": ..., "angle_rad": ...} or -')
    analyze.add_argument("--perm-class", required=True, choices=perm_classes)
    _add_shared(analyze, _cmd_analyze, "--tol-rank", "--tol-angle")

    sample = commands.add_parser("sample", help="draw ambiguous tetrahedra for a rotation and class")
    sample.add_argument("--rotation", required=True)
    sample.add_argument("--perm-class", required=True, choices=perm_classes)
    _add_shared(sample, _cmd_sample, "--tol-rank", "--tol-geom", "--tol-angle", "--seed", "--trials", trials=1)

    verify_dims = commands.add_parser("verify-dims", help="sweep the dimension table with random rotations")
    _add_shared(verify_dims, _cmd_verify_dims, "--tol-rank", "--tol-angle", "--seed", "--trials")

    names = commands.add_parser("reproduce", help="replay a bundled worked instance").add_subparsers(
        dest="name", required=True)
    for name, text, replay, options in (
        ("four-cycle", "ambiguous instance, two rotations", _reproduce_four_cycle, ("--tol-rank", "--tol-geom")),
        ("norm-prune", "norm test leaves only the identity", _reproduce_norm_prune, ("--tol-geom",)),
        ("planar", "coplanar instance with two solutions", _reproduce_planar, ("--tol-rank", "--tol-geom")),
        ("uniqueness-sweep", "random tetrahedra, identity only", _reproduce_uniqueness_sweep,
         ("--tol-rank", "--tol-geom", "--seed", "--trials")),
    ):
        _add_shared(names.add_parser(name, help=text), replay, *options)
    return parser


# The one parser of the process, built on import and shared by every thread.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        if sys.stdout is None:  # Python's stdout when fd 1 was closed at start; -h writes there too
            raise OSError("stdout is closed")
        args = _PARSER.parse_args(argv)
        report, ok = args.func(args, _config(args))
        _emit({"command": args.command, **report})
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        if sys.stderr is not None:  # with fd 2 closed at start, print would write to stdout
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
