"""Command-line front end: JSON in, JSON out.

Commands
    solve        recover rotations from a tetrahedron file and a projection file
    analyze      rank and dimension report for one rotation and relabeling class
    sample       draw ambiguous tetrahedra from a null space
    verify-dims  sweep the dimension table against random rotations
    reproduce    replay a bundled worked instance and check the expected values

Exit codes: 0 success / match, 1 semantic failure (no solution or mismatch),
2 usage or parse error, a closed stdin or stdout included; a reader that
closes stdout or stderr early changes none of them.  Identical arguments, including
the seed, produce byte-identical reports.

`reproduce` takes the name of a worked instance as a subcommand, and its
flags follow the name; a flag given before it is refused with that order
shown, or as unrecognized if the instance does not take it.  `sample`
computes the null space once per command and draws every trial from it,
and measures each sample's residual by the solver's gate rule.

Input files keep no rule of their own: each number is checked once, by the
library's as_finite_array (through Tetrahedron and ProjectionQuad for
vertices and points), and a refused input exits 2 with its ValueError's
message.  A file is one unbuffered read and one strict UTF-8 decode, with
its CR and CRLF line ends read as text mode reads them; stdin's bytes are
held to the same strict UTF-8.  A report is written in one pass into one
list of pieces, joined once and written to stdout in one call; the writer
takes the exact types a report holds and refuses any other, a subclass
(np.float64 among them) included.

Every command's handler has the contract `(args, tol) -> (report, ok)`: it
gets the parsed arguments and the tolerances they resolve to, passes `tol`
on whole to each library function that takes one, and returns its report
without the "command" key and its verdict.  `main` alone resolves
the tolerances, prints the report with "command" first, and maps the verdict
to exit code 0 or 1.

The parser, with every command and option, is built once on import and shared
by all threads: `main()` builds nothing, and parsing stores nothing on the
parser, so `main()` may be called from several threads at once.  A command is
parsed once at most: its leading words (the command, then a `reproduce` name)
pick the one parser that reads the rest, which is what argparse's subcommand
actions hand it.  The plain spelling of the rest, each word an exact option
of that parser given once and each value a word that does not begin with "-"
and converts, with every required option given, is read without argparse's
pass, by a plan built once with the parser.  Every other list (-h, usage
errors, abbreviations, --opt=value, --, a repeated option, a value such as
stdin's - or a negative number) goes to that parser's parse_known_args, and
the top-level parser reads a list whose first word names no command, so
help, usage and every error keep argparse's own words.
"""

from __future__ import annotations

import argparse
import json
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
    PermClass,
    Permutation4,
    ProjectionQuad,
    Tetrahedron,
    Tolerances,
    _own_tetrahedron,
    as_finite_array,
    project,
)
from .instances import four_cycle_instance, norm_prune_instance, planar_instance
from .rotation import (
    AxisClass,
    UnitQuaternion,
    _axis_turn,
    _unit_axis,
    apply,
    classify_rotation,
    quat_to_matrix,
)
from .solver import SolveCandidate, _apart, _misses, labeled_solve, prune_permutations, unlabeled_solve

__all__ = ["main"]

# Redraws of one uniqueness-sweep trial before --tol-rank counts as admitting no tetrahedron.
_MAX_DRAWS = 1000
# The nine entries of the identity matrix, row by row, as the sweep's candidates give theirs.
_IDENTITY_ENTRIES = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _load_json(path: str):
    """The JSON value of the file at path, or of stdin for "-".

    A file is one unbuffered read, decoded once as strict UTF-8, with its
    CR and CRLF line ends read as "\\n" as text mode reads them; stdin's
    bytes are decoded by the same rule, with no newline translated, as
    POSIX stdin never did.  A text stdin with no byte buffer (io.StringIO)
    is read as it is.  json.loads gets a str, never bytes, which it would
    also read as UTF-16 or UTF-32.  A decoder error, bytes that are not
    UTF-8 and nesting too deep are ValueErrors that name the file or
    <stdin>; a file that cannot be opened raises its OSError.
    """
    name = "<stdin>" if path == "-" else path
    if path == "-" and sys.stdin is None:  # Python's stdin when fd 0 was closed at start
        raise OSError("stdin is closed")
    try:
        if path != "-":
            with open(path, "rb", buffering=0) as handle:
                text = handle.read().decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
        elif hasattr(sys.stdin, "buffer"):
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            text = sys.stdin.read()
        return json.loads(text)
    except ValueError as exc:  # a decoder error, bytes that are not UTF-8, an integer too long
        raise ValueError(f"{name}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply") from None


def parse_tetrahedron(obj) -> Tetrahedron:
    """The tetrahedron of {"vertices": [[x, y, z] * 4]}; Tetrahedron checks the numbers."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise ValueError('tetrahedron input must be {"vertices": [[x, y, z] * 4]}')
    return Tetrahedron(obj["vertices"])


def parse_projection(obj) -> ProjectionQuad:
    """The quad of {"points": [[x, y] * 4]}; ProjectionQuad checks the numbers."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise ValueError('projection input must be {"points": [[x, y] * 4]}')
    return ProjectionQuad(obj["points"])


def parse_rotation(obj) -> UnitQuaternion:
    """The rotation of {"quaternion": [a, b, c, d]} or {"axis": [x, y, z], "angle_rad": t};
    as_finite_array checks each value's numbers and shape, once, and the axis is
    made unit by _unit_axis before _axis_turn turns about it."""
    if isinstance(obj, dict) and "quaternion" in obj:
        return UnitQuaternion.normalized(*as_finite_array(obj["quaternion"], (4,), "quaternion").tolist())
    if isinstance(obj, dict) and "axis" in obj and "angle_rad" in obj:
        x, y, z = _unit_axis(as_finite_array(obj["axis"], (3,), "axis")).tolist()
        return _axis_turn(x, y, z, float(as_finite_array(obj["angle_rad"], (), "angle_rad")))
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


def _indents(depth: int) -> tuple[str, str, str]:
    """The text before a container's first item, between its items and before
    its closing bracket, for a container on a line indented by depth steps."""
    inner = "\n" + "  " * (depth + 1)
    return inner, "," + inner, "\n" + "  " * depth


# _indents of every depth a report reaches, formed once; deeper values form theirs per container.
_INDENTS = tuple(_indents(depth) for depth in range(6))


def _json(value, end: str = "") -> str:
    """value in the bytes of json.dumps(value, indent=2, allow_nan=False),
    then end: one pass appends every piece to one list, joined once.  Reports
    hold only dicts with str keys, lists, str, int, float, bool and None, each
    of exactly that type: a non-finite float raises ValueError, and any other
    value or key, a subclass of those types (np.float64 among them)
    included, TypeError."""
    pieces = []
    _write(value, pieces.append, 0)
    pieces.append(end)
    return "".join(pieces)


def _write(value, append, depth: int) -> None:
    """Append the text of value, on a line indented by depth steps.  Each
    branch matches exact types, a finite float or an int first (inf - inf and
    nan - nan are nan); a non-finite float comes last."""
    kind = type(value)
    if kind is float and value - value == 0.0 or kind is int:
        append(repr(value))
    elif kind is str:
        append(encode_basestring_ascii(value))
    elif kind is list:
        if not value:
            append("[]")
            return
        lead, separator, closing = _INDENTS[depth] if depth < len(_INDENTS) else _indents(depth)
        append("[")
        for item in value:
            append(lead)
            lead = separator
            _write(item, append, depth + 1)
        append(closing)
        append("]")
    elif kind is dict:
        if not value:
            append("{}")
            return
        lead, separator, closing = _INDENTS[depth] if depth < len(_INDENTS) else _indents(depth)
        append("{")
        for key, item in value.items():
            append(lead)
            lead = separator
            append(encode_basestring_ascii(key))  # TypeError for a key that is not a string
            append(": ")
            _write(item, append, depth + 1)
        append(closing)
        append("}")
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif kind is float:
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict) -> None:
    """Write the report and its line end as one string.  A reader that closed
    the pipe early gets nothing more, and the command keeps its own exit code."""
    try:
        sys.stdout.write(_json(report, "\n"))
        sys.stdout.flush()
    except BrokenPipeError:
        _to_devnull(sys.stdout)


def _to_devnull(stream) -> None:
    """Point the descriptor of stream, whose reader closed its pipe, at
    devnull.  Python flushes stdout and stderr again at exit, and what a
    failed write left in the buffer would fail again there, turning the exit
    code into 120; written to devnull, that flush succeeds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
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
    axis_class, alpha = classify_rotation(rotation, tol)
    # refuses the identity before the system is built, so it costs no SVD
    predicted = predicted_dimension(perm_class, axis_class, alpha, tol)
    rank = numeric_rank(build_config_matrix(rotation, perm_class), tol)
    computed = 9 - rank
    return {
        "perm_class": perm_class.value,
        "axis_class": axis_class.value,
        "angle_rad": alpha,
        "case": case_label(axis_class, alpha, tol),
        "rank": rank,
        "computed_dim": computed,
        "predicted_dim": predicted,
    }, computed == predicted


def _cmd_sample(args: argparse.Namespace, tol: Tolerances) -> tuple[dict, bool]:
    rotation = parse_rotation(_load_json(args.rotation))
    perm_class = PermClass(args.perm_class)
    sigma = CANONICAL_PERMUTATION[perm_class]
    # sample_tetrahedron per trial, with the null space and the rotation matrix computed once
    basis = null_space_basis(_system(rotation, perm_class, tol), tol)
    transpose = quat_to_matrix(rotation).T
    order = sigma.zero_based()
    samples = []
    for trial in range(args.trials):
        tetra = _draw(basis, np.random.default_rng([args.seed, trial]))
        vertices = tetra.vertices.tolist()
        # the gate's miss of rotated vertex i (apply()'s matmul) against the shadow of vertex sigma(i)
        rotated = (tetra.vertices @ transpose).tolist()
        (residual,) = _misses([rotated], [[vertices[i][:2] for i in order]])
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
            # a draw within --tol-angle of the identity lies in no cell, so it misses its own
            if (classify_rotation(rotation, tol)[0] is AxisClass.NO_AXIS
                    or config_dimension(rotation, cell.perm_class, tol) != cell.expected_dim):
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
    survivors = prune_permutations(inst.vertices, inst.projection, tol)
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
            tetra = _own_tetrahedron(rng.standard_normal(12).tolist())
            if tetra.full_dimensional(tol.rank_rel):
                break
        else:
            raise ValueError(f"no full-dimensional tetrahedron in {_MAX_DRAWS} draws at --tol-rank "
                             f"{tol.rank_rel!r}; choose a smaller --tol-rank")
        # every candidate passed the solver's gate at --tol-geom; one _apart from
        # the identity is another rotation with the same shadow
        for cand in unlabeled_solve(tetra, project(tetra), tol):
            if _apart(cand.matrix.ravel().tolist(), _IDENTITY_ENTRIES):
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


def _add_shared(parser: _CommandParser, func, *options: str, **defaults) -> None:
    """Add the shared options a command reads, the function that runs it and
    any default of its own, the last of its arguments; then build its plan."""
    for option in options:
        kind, default, text = _SHARED_OPTIONS[option]
        parser.add_argument(option, type=kind, default=default, help=text)
    parser.set_defaults(func=func, **defaults)
    parser._plan = _read_plan(parser)


def _read_plan(parser: argparse.ArgumentParser):
    """The read plan of a parser whose arguments are all in place, for _read:
    each exact option string with its action, the namespace argparse starts
    from (each action's default, then each set_defaults value, the first of
    a dest winning) and the required actions.  None for a parser whose words
    always need argparse's pass: one with a positional argument, an option
    whose nargs is neither None nor 0, or a string default, which argparse
    converts by type.  -h is left out: its default sets nothing, and
    argparse's pass reads it."""
    options, start, required = {}, {}, set()
    for action in parser._actions:
        if not action.option_strings or action.nargs not in (None, 0):
            return None
        if action.default is argparse.SUPPRESS:
            continue
        if isinstance(action.default, str):
            return None
        options.update(dict.fromkeys(action.option_strings, action))
        start.setdefault(action.dest, action.default)
        if action.required:
            required.add(action)
    for dest, value in parser._defaults.items():
        start.setdefault(dest, value)
    return options, start, frozenset(required)


class _UsageError(Exception):
    """A usage error on its way from error() to the parse_known_args call that words it."""


class _CommandParser(argparse.ArgumentParser):
    """Parser of a command or of a `reproduce` name, which argparse hands its
    arguments through parse_known_args.

    A usage error is worded by the call that holds the arguments, so parsing
    stores nothing on the parser and threads can share it.  _build_parser
    sets the action of its subcommands, and _add_shared the plan _read reads
    its words by, once each while the parser is built.
    """

    _subcommands = None  # the action that holds the subcommands
    _plan = None  # the _read_plan of a runnable command's parser

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
    # set on each parser that has subcommands, for _parse to walk
    commands = parser._subcommands = parser.add_subparsers(dest="command", required=True,
                                                           parser_class=_CommandParser)
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

    reproduce = commands.add_parser("reproduce", help="replay a bundled worked instance")
    names = reproduce._subcommands = reproduce.add_subparsers(dest="name", required=True)
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


def _read(plan, words: list):
    """The namespace parse_known_args(words) gives on the parser of plan, with
    no word left; None where the words need argparse's pass.

    The words are read here when each is an exact option string of the
    plan, given at most once; an option that takes a value is followed by
    one word that does not begin with "-", converts by the option's type and
    lies in its choices; and every required option is given.  A copy of the
    plan's start namespace takes what each given option stores, as it is read.
    Anything else is None: -h, an abbreviation, --opt=value, --, a repeated
    option, a value that begins with "-" (stdin's -, a negative number) or a
    stray word.
    """
    options, start, required = plan
    namespace, given, words = argparse.Namespace(**start), set(), iter(words)
    for word in words:
        action = options.get(word)
        if action is None or action in given:
            return None
        value = []  # what argparse hands an option that takes no value
        if action.nargs is None:
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        given.add(action)
        action(None, namespace, value, word)  # a store or count action does not read its parser
    return namespace if given >= required else None


def _parse(argv) -> argparse.Namespace:
    """The namespace _PARSER.parse_args(argv) gives, from one parser's pass at most.

    argparse's subparsers action hands every word after a subcommand's name
    to that subcommand's parser, and sets its dest to the name.  So the
    leading words that name a command, then a `reproduce` name, pick the
    parser that reads the rest.  _read reads them by that parser's plan
    when they are the plain spelling (exact option strings, each once, with
    values that convert); any other list goes to that parser's
    parse_known_args, and words it leaves are refused as parse_args refuses
    them, so help, usage and every error keep argparse's own words.  A list
    whose first word names no command walks no word, so _PARSER reads it whole.
    """
    words = sys.argv[1:] if argv is None else list(argv)
    parser, names = _PARSER, {}
    while parser._subcommands is not None and words and words[0] in parser._subcommands.choices:
        names[parser._subcommands.dest] = words[0]
        parser, words = parser._subcommands.choices[words[0]], words[1:]
    plan = getattr(parser, "_plan", None)  # the top-level parser has none
    args = None if plan is None else _read(plan, words)
    if args is None:
        args, unread = parser.parse_known_args(words)
        if unread:
            _PARSER.error(f"unrecognized arguments: {' '.join(unread)}")
    return argparse.Namespace(**names, **vars(args))


def main(argv=None) -> int:
    try:
        if sys.stdout is None:  # Python's stdout when fd 1 was closed at start; -h writes there too
            raise OSError("stdout is closed")
        args = _parse(argv)
        report, ok = args.func(args, _config(args))
        _emit({"command": args.command, **report})
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        if sys.stderr is not None:  # with fd 2 closed at start, print would write to stdout
            try:
                print(f"error: {exc}", file=sys.stderr)
            except OSError:  # a reader that closed stderr gets no error line, and the code stays 2
                _to_devnull(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
