import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tetrot import cli
from tetrot.cli import main, parse_projection, parse_rotation, parse_tetrahedron
from tetrot.configspace import CLASSIFICATION_CELLS, sample_cell_rotation, sample_tetrahedron
from tetrot.geom import CANONICAL_PERMUTATION, ProjectionQuad, project
from tetrot.instances import four_cycle_instance, planar_instance
from tetrot.rotation import apply


@pytest.fixture
def four_cycle_files(tmp_path):
    inst = four_cycle_instance()
    tet = tmp_path / "tet.json"
    proj = tmp_path / "proj.json"
    tet.write_text(json.dumps({"vertices": inst.tetrahedron.vertices.tolist()}))
    proj.write_text(json.dumps({"points": inst.projection.points.tolist()}))
    return str(tet), str(proj)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestSolveCommand:
    def test_four_cycle_unlabeled(self, capsys, four_cycle_files):
        tet, proj = four_cycle_files
        code, report = run(capsys, ["solve", "--tetrahedron", tet, "--projection", proj])
        assert code == 0
        sigmas = [tuple(c["sigma"]) for c in report["candidates"]]
        assert (2, 3, 4, 1) in sigmas
        cand = next(c for c in report["candidates"] if tuple(c["sigma"]) == (2, 3, 4, 1))
        expected = four_cycle_instance().matrix
        assert np.max(np.abs(np.array(cand["matrix"]) - expected)) <= 1e-10

    def test_planar_labeled_has_two_candidates(self, capsys, tmp_path):
        inst = planar_instance()
        tet = tmp_path / "tet.json"
        proj = tmp_path / "proj.json"
        tet.write_text(json.dumps({"vertices": inst.tetrahedron.vertices.tolist()}))
        proj.write_text(json.dumps({"points": inst.projection.points.tolist()}))
        code, report = run(capsys, [
            "solve", "--tetrahedron", str(tet), "--projection", str(proj), "--labeled",
        ])
        assert code == 0
        assert len(report["candidates"]) == 2
        assert all(c["planar_ambiguous"] for c in report["candidates"])

    def test_incompatible_projection_exits_one(self, capsys, four_cycle_files, tmp_path):
        tet, proj = four_cycle_files
        points = np.array(json.loads(open(proj).read())["points"]) * 5.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": points.tolist()}))
        code, report = run(capsys, ["solve", "--tetrahedron", tet, "--projection", str(bad)])
        assert code == 1
        assert report["candidates"] == []

    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("scale", [50.0, 0.1])
    def test_collinear_vertices_exit_two(self, capsys, tmp_path, scale, labeled):
        tet = tmp_path / "tet.json"
        proj = tmp_path / "proj.json"
        tet.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]}))
        proj.write_text(json.dumps({"points": [[scale, scale], [-scale, scale], [-scale, -scale], [scale, -scale]]}))
        argv = ["solve", "--tetrahedron", str(tet), "--projection", str(proj)] + ["--labeled"] * labeled
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: vertices span less than a plane\n"

    def test_malformed_input_exits_two(self, capsys, tmp_path, four_cycle_files):
        _, proj = four_cycle_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [[0, 0], [1, 1]]}')
        code = main(["solve", "--tetrahedron", str(bad), "--projection", proj])
        capsys.readouterr()
        assert code == 2

    def test_deeply_nested_input_exits_two(self, capsys, tmp_path, four_cycle_files):
        _, proj = four_cycle_files
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code = main(["solve", "--tetrahedron", str(deep), "--projection", proj])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")

    def test_missing_file_exits_two(self, capsys, four_cycle_files):
        _, proj = four_cycle_files
        code = main(["solve", "--tetrahedron", "/nonexistent.json", "--projection", proj])
        capsys.readouterr()
        assert code == 2


class TestAnalyzeCommand:
    def test_double_two_cycle_vertical_half_turn(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": math.pi}))
        code, report = run(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "double-two-cycle",
        ])
        assert code == 0
        assert report["axis_class"] == "vertical"
        assert report["case"] == "vertical-half-turn"
        assert report["rank"] == 2
        assert report["computed_dim"] == 7
        assert report["predicted_dim"] == 7

    def test_three_cycle_horizontal_quarter_turn(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [1, 0, 0], "angle_rad": math.pi / 2}))
        code, report = run(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "three-cycle",
        ])
        assert code == 0
        assert report["computed_dim"] == 4

    def test_four_cycle_oblique_sixth_turn_is_generic(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [1, 0, 1], "angle_rad": math.pi / 3}))
        code, report = run(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "four-cycle",
        ])
        assert code == 0
        assert report["case"] == "oblique"
        assert report["computed_dim"] == 3

    def test_overlapping_angle_windows_take_the_first_special_angle(self, capsys, tmp_path):
        # with --tol-angle 0.3, 1.85 rad lies within both the quarter-turn and
        # the third-turn window; the label and the prediction both take the
        # first match in the order half, quarter, third
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": 1.85}))
        code, report = run(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "three-cycle", "--tol-angle", "0.3",
        ])
        assert code == 0
        assert report["case"] == "vertical-quarter-turn"
        assert report["predicted_dim"] == 3
        assert report["computed_dim"] == 3

    def test_identity_rotation_exits_two(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"quaternion": [1, 0, 0, 0]}))
        code = main(["analyze", "--rotation", str(rot), "--perm-class", "two-cycle"])
        capsys.readouterr()
        assert code == 2


class TestNonNumericInput:
    @pytest.mark.parametrize("field, content", [
        ("quaternion", {"quaternion": 5}),
        ("quaternion", {"quaternion": ["0", "0", "0", "1"]}),
        ("quaternion", {"quaternion": [0, 0, 0, True]}),
        ("quaternion", {"quaternion": [0, 0, 0, 10**400]}),
        ("axis", {"axis": [0, "0", 1], "angle_rad": math.pi}),
        ("angle_rad", {"axis": [1, 0, 0], "angle_rad": None}),
        ("angle_rad", {"axis": [1, 0, 0], "angle_rad": [1.0]}),
        ("vertices", {"vertices": [[2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 0, False]]}),
        ("points", {"points": [[0, 0], [1, 0], [0, 1], ["0", 0]]}),
    ])
    def test_exits_two_without_traceback(self, capsys, tmp_path, four_cycle_files, field, content):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        tet, proj = four_cycle_files
        if field == "vertices":
            argv = ["solve", "--tetrahedron", str(bad), "--projection", proj]
        elif field == "points":
            argv = ["solve", "--tetrahedron", tet, "--projection", str(bad)]
        else:
            argv = ["analyze", "--rotation", str(bad), "--perm-class", "double-two-cycle"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {field} ")
        assert "Traceback" not in err


class TestAngleTolerance:
    def test_sample_rejects_a_rotation_within_tol_angle_of_identity(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": 1e-8}))
        for command in ("analyze", "sample"):
            code = main([command, "--rotation", str(rot), "--perm-class", "two-cycle", "--tol-angle", "1e-6"])
            assert code == 2, command
            assert "identity" in capsys.readouterr().err

    def test_verify_dims_rejects_cell_rotations_within_tol_angle(self, capsys):
        # every rotation angle lies in [0, pi], so a tolerance above pi makes
        # every cell rotation count as the identity, whatever the draws
        code = main(["verify-dims", "--trials", "1", "--tol-angle", "3.5"])
        assert code == 2
        assert "identity" in capsys.readouterr().err


class TestSampleCommand:
    def test_samples_verify_and_reparse(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [1, 0, 1], "angle_rad": math.pi / 3}))
        code, report = run(capsys, [
            "sample", "--rotation", str(rot), "--perm-class", "four-cycle",
            "--trials", "3", "--seed", "9",
        ])
        assert code == 0
        assert len(report["samples"]) == 3
        assert all(s["ok"] for s in report["samples"])
        for sample in report["samples"]:
            tetra = parse_tetrahedron({"vertices": sample["vertices"]})
            assert tetra.vertices.shape == (4, 3)

    def test_byte_identical_reports_for_equal_seeds(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": math.pi}))
        argv = ["sample", "--rotation", str(rot), "--perm-class", "two-cycle",
                "--trials", "4", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestVerifyDimsCommand:
    def test_sweep_passes(self, capsys):
        code, report = run(capsys, ["verify-dims", "--trials", "3", "--seed", "1"])
        assert code == 0
        assert report["ok"]
        assert all(cell["mismatches"] == 0 for cell in report["cells"])

    def test_deterministic_output(self, capsys):
        argv = ["verify-dims", "--trials", "2", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestReproduceCommand:
    @pytest.mark.parametrize("name", ["four-cycle", "norm-prune", "planar"])
    def test_bundled_instances_match(self, capsys, name):
        code, report = run(capsys, ["reproduce", name])
        assert code == 0
        assert report["ok"]

    def test_uniqueness_sweep(self, capsys):
        code, report = run(capsys, ["reproduce", "uniqueness-sweep", "--trials", "50"])
        assert code == 0
        assert report["spurious_non_identity"] == 0

    def test_unknown_name_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "no-such-instance"])
        capsys.readouterr()
        assert err.value.code == 2


class TestParsers:
    def test_rotation_from_quaternion(self):
        q = parse_rotation({"quaternion": [0, 0, 0, 1]})
        assert (q.a, q.b, q.c, q.d) == (0.0, 0.0, 0.0, 1.0)

    def test_rotation_from_axis_angle_normalizes_axis(self):
        q = parse_rotation({"axis": [0, 0, 5], "angle_rad": math.pi})
        np.testing.assert_allclose(q.as_array(), [0, 0, 0, 1], atol=1e-15)

    def test_rotation_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            parse_rotation({"angle_deg": 90})

    def test_projection_roundtrip(self):
        inst = four_cycle_instance()
        report = {"points": inst.projection.points.tolist()}
        again = parse_projection(json.loads(json.dumps(report)))
        np.testing.assert_array_equal(again.points, inst.projection.points)


class TestJsonErrors:
    BAD = '{"vertices": [[0, 0, 0] [1, 0, 0]]}'

    def decoder_message(self) -> str:
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(self.BAD)
        return str(exc.value)

    def test_decoder_error_names_the_file(self, capsys, tmp_path, four_cycle_files):
        _, proj = four_cycle_files
        bad = tmp_path / "bad.json"
        bad.write_text(self.BAD)
        code = main(["solve", "--tetrahedron", str(bad), "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {self.decoder_message()}\n"

    def test_decoder_error_names_stdin(self, capsys, monkeypatch, four_cycle_files):
        _, proj = four_cycle_files
        monkeypatch.setattr("sys.stdin", io.StringIO(self.BAD))
        code = main(["solve", "--tetrahedron", "-", "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == f"error: <stdin>: {self.decoder_message()}\n"

    def test_undecodable_file_is_named(self, capsys, tmp_path, four_cycle_files):
        _, proj = four_cycle_files
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff{}")
        code = main(["solve", "--tetrahedron", str(bad), "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_too_deep_stdin_is_named(self, capsys, monkeypatch, four_cycle_files):
        _, proj = four_cycle_files
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        code = main(["solve", "--tetrahedron", "-", "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == "error: <stdin>: JSON nested too deeply\n"

    def test_stdin_feeds_one_input(self, capsys, monkeypatch, four_cycle_files):
        tet, _ = four_cycle_files
        with open(tet) as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        code = main(["solve", "--tetrahedron", "-", "--projection", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: stdin can feed only one input, but --tetrahedron and --projection are both -\n"
        )


# stdout, stderr and exit code of each case, captured under Python 3.11 with
# COLUMNS=80 while every command still added all of its options up front
GOLDEN_ARGV = {
    "help": ["-h"],
    "solve-help": ["solve", "-h"],
    "analyze-help": ["analyze", "-h"],
    "sample-help": ["sample", "-h"],
    "verify-dims-help": ["verify-dims", "-h"],
    "reproduce-help": ["reproduce", "-h"],
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "missing-required": ["solve", "--tetrahedron", "TET"],
    "bad-perm-class": ["analyze", "--rotation", "ROT", "--perm-class", "five-cycle"],
    "non-float-tol-geom": ["verify-dims", "--tol-geom", "abc"],
    "abbreviated-tetr": ["solve", "--tetr", "TET", "--projection", "PROJ"],
    "extra-positional": ["reproduce", "four-cycle", "extra"],
}

GOLDEN = {
    "help": (
        0,
        (
            "usage: tetrot [-h] {solve,analyze,sample,verify-dims,reproduce} ...\n"
            "\n"
            "Recover tetrahedron rotations from orthographic projections and analyze the\n"
            "relabeling ambiguities.\n"
            "\n"
            "positional arguments:\n"
            "  {solve,analyze,sample,verify-dims,reproduce}\n"
            "    solve               recover rotations from tetrahedron and projection\n"
            "                        files\n"
            "    analyze             rank and dimension report for one rotation\n"
            "    sample              draw ambiguous tetrahedra for a rotation and class\n"
            "    verify-dims         sweep the dimension table with random rotations\n"
            "    reproduce           replay a bundled worked instance\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    "solve-help": (
        0,
        (
            "usage: tetrot solve [-h] --tetrahedron TETRAHEDRON --projection PROJECTION\n"
            "                    [--labeled] [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                    [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --tetrahedron TETRAHEDRON\n"
            '                        JSON file {"vertices": ...} or -\n'
            "  --projection PROJECTION\n"
            '                        JSON file {"points": ...} or -\n'
            "  --labeled             match projection point i to vertex i instead of trying\n"
            "                        all relabelings\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
            "  --tol-geom TOL_GEOM   absolute tolerance for projected-point matches\n"
            "  --tol-angle TOL_ANGLE\n"
            "                        tolerance for axis components and special angles;\n"
            "                        above pi/12 the half-, quarter- and third-turn windows\n"
            "                        overlap, and the first match in that order decides\n"
            "  --seed SEED           base seed for all randomness\n"
        ),
        "",
    ),
    "analyze-help": (
        0,
        (
            "usage: tetrot analyze [-h] --rotation ROTATION --perm-class\n"
            "                      {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "                      [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                      [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            '  --rotation ROTATION   JSON file {"quaternion": ...} or {"axis": ...,\n'
            '                        "angle_rad": ...} or -\n'
            "  --perm-class {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
            "  --tol-geom TOL_GEOM   absolute tolerance for projected-point matches\n"
            "  --tol-angle TOL_ANGLE\n"
            "                        tolerance for axis components and special angles;\n"
            "                        above pi/12 the half-, quarter- and third-turn windows\n"
            "                        overlap, and the first match in that order decides\n"
            "  --seed SEED           base seed for all randomness\n"
        ),
        "",
    ),
    "sample-help": (
        0,
        (
            "usage: tetrot sample [-h] --rotation ROTATION --perm-class\n"
            "                     {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "                     [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                     [--tol-angle TOL_ANGLE] [--seed SEED] [--trials TRIALS]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --rotation ROTATION\n"
            "  --perm-class {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
            "  --tol-geom TOL_GEOM   absolute tolerance for projected-point matches\n"
            "  --tol-angle TOL_ANGLE\n"
            "                        tolerance for axis components and special angles;\n"
            "                        above pi/12 the half-, quarter- and third-turn windows\n"
            "                        overlap, and the first match in that order decides\n"
            "  --seed SEED           base seed for all randomness\n"
            "  --trials TRIALS       number of random trials or samples\n"
        ),
        "",
    ),
    "verify-dims-help": (
        0,
        (
            "usage: tetrot verify-dims [-h] [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                          [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "                          [--trials TRIALS]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
            "  --tol-geom TOL_GEOM   absolute tolerance for projected-point matches\n"
            "  --tol-angle TOL_ANGLE\n"
            "                        tolerance for axis components and special angles;\n"
            "                        above pi/12 the half-, quarter- and third-turn windows\n"
            "                        overlap, and the first match in that order decides\n"
            "  --seed SEED           base seed for all randomness\n"
            "  --trials TRIALS       number of random trials or samples\n"
        ),
        "",
    ),
    "reproduce-help": (
        0,
        (
            "usage: tetrot reproduce [-h] [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                        [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "                        [--trials TRIALS]\n"
            "                        {four-cycle,norm-prune,planar,uniqueness-sweep}\n"
            "\n"
            "positional arguments:\n"
            "  {four-cycle,norm-prune,planar,uniqueness-sweep}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
            "  --tol-geom TOL_GEOM   absolute tolerance for projected-point matches\n"
            "  --tol-angle TOL_ANGLE\n"
            "                        tolerance for axis components and special angles;\n"
            "                        above pi/12 the half-, quarter- and third-turn windows\n"
            "                        overlap, and the first match in that order decides\n"
            "  --seed SEED           base seed for all randomness\n"
            "  --trials TRIALS       number of random trials or samples\n"
        ),
        "",
    ),
    "no-command": (
        2,
        "",
        (
            "usage: tetrot [-h] {solve,analyze,sample,verify-dims,reproduce} ...\n"
            "tetrot: error: the following arguments are required: command\n"
        ),
    ),
    "unknown-command": (
        2,
        "",
        (
            "usage: tetrot [-h] {solve,analyze,sample,verify-dims,reproduce} ...\n"
            "tetrot: error: argument command: invalid choice: 'frobnicate' (choose from 'solve', 'analyze', 'sample', 'verify-dims', 'reproduce')\n"
        ),
    ),
    "missing-required": (
        2,
        "",
        (
            "usage: tetrot solve [-h] --tetrahedron TETRAHEDRON --projection PROJECTION\n"
            "                    [--labeled] [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                    [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "tetrot solve: error: the following arguments are required: --projection\n"
        ),
    ),
    "bad-perm-class": (
        2,
        "",
        (
            "usage: tetrot analyze [-h] --rotation ROTATION --perm-class\n"
            "                      {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "                      [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                      [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "tetrot analyze: error: argument --perm-class: invalid choice: 'five-cycle' (choose from 'identity', 'two-cycle', 'double-two-cycle', 'three-cycle', 'four-cycle')\n"
        ),
    ),
    "non-float-tol-geom": (
        2,
        "",
        (
            "usage: tetrot verify-dims [-h] [--tol-rank TOL_RANK] [--tol-geom TOL_GEOM]\n"
            "                          [--tol-angle TOL_ANGLE] [--seed SEED]\n"
            "                          [--trials TRIALS]\n"
            "tetrot verify-dims: error: argument --tol-geom: invalid float value: 'abc'\n"
        ),
    ),
    "abbreviated-tetr": (
        1,
        (
            "{\n"
            '  "command": "solve",\n'
            '  "labeled": false,\n'
            '  "candidates": []\n'
            "}\n"
        ),
        "",
    ),
    "extra-positional": (
        2,
        "",
        (
            "usage: tetrot [-h] {solve,analyze,sample,verify-dims,reproduce} ...\n"
            "tetrot: error: unrecognized arguments: extra\n"
        ),
    ),
}


@pytest.fixture
def golden_files(tmp_path):
    """TET and PROJ: the four-cycle tetrahedron and its projection scaled by 5
    (no rotation matches it); ROT: a vertical half-turn."""
    inst = four_cycle_instance()
    files = {"TET": tmp_path / "tet.json", "PROJ": tmp_path / "proj.json", "ROT": tmp_path / "rot.json"}
    files["TET"].write_text(json.dumps({"vertices": inst.tetrahedron.vertices.tolist()}))
    files["PROJ"].write_text(json.dumps({"points": (inst.projection.points * 5.0).tolist()}))
    files["ROT"].write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": math.pi}))
    return {key: str(path) for key, path in files.items()}


def invoke(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one main() call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _EagerCommandParser(cli._CommandParser):
    """A command parser that adds its options when it is built."""

    def __init__(self, *args, add_options=None, **kwargs):
        super().__init__(*args, **kwargs)
        if add_options is not None:
            add_options(self)


class TestGoldenText:
    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="argparse wording and layout vary between Python versions; the pins come from 3.11",
    )
    @pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
    def test_pinned(self, capsys, monkeypatch, golden_files, case):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [golden_files.get(arg, arg) for arg in GOLDEN_ARGV[case]]
        assert invoke(capsys, argv) == GOLDEN[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
    def test_same_as_options_added_up_front(self, capsys, monkeypatch, golden_files, case):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [golden_files.get(arg, arg) for arg in GOLDEN_ARGV[case]]
        lazy = invoke(capsys, argv)
        monkeypatch.setattr(cli, "_CommandParser", _EagerCommandParser)
        assert invoke(capsys, argv) == lazy


COMMON_OPTIONS = {"--tol-rank", "--tol-geom", "--tol-angle", "--seed"}


class TestLazyOptions:
    @pytest.mark.parametrize("argv, own", [
        (["solve", "--tetrahedron", "TET", "--projection", "PROJ"],
         {"--tetrahedron", "--projection", "--labeled"} | COMMON_OPTIONS),
        (["analyze", "--rotation", "ROT", "--perm-class", "double-two-cycle"],
         {"--rotation", "--perm-class"} | COMMON_OPTIONS),
        (["sample", "--rotation", "ROT", "--perm-class", "two-cycle"],
         {"--rotation", "--perm-class", "--trials"} | COMMON_OPTIONS),
        (["verify-dims", "--trials", "1"], {"--trials"} | COMMON_OPTIONS),
        (["reproduce", "four-cycle"], {"name", "--trials"} | COMMON_OPTIONS),
    ])
    def test_only_the_command_options_are_added(self, capsys, monkeypatch, golden_files, argv, own):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def recording(self, *args, **kwargs):
            added.extend(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
        code, _, err = invoke(capsys, [golden_files.get(arg, arg) for arg in argv])
        assert err == ""
        assert code in (0, 1)
        assert set(added) == {"-h", "--help"} | own


class TestSampleDefinition:
    SEED = 31

    def rotation_file(self, tmp_path, index):
        """One cell rotation as a file, and the rotation the CLI reads back from it."""
        q = sample_cell_rotation(CLASSIFICATION_CELLS[index], np.random.default_rng([17, index]))
        text = json.dumps({"quaternion": list(q.as_array())})
        path = tmp_path / f"rot{index}.json"
        path.write_text(text)
        return str(path), parse_rotation(json.loads(text))

    @pytest.mark.parametrize("index", range(len(CLASSIFICATION_CELLS)))
    def test_report_is_sample_tetrahedron_per_trial(self, capsys, tmp_path, index):
        perm_class = CLASSIFICATION_CELLS[index].perm_class
        sigma = CANONICAL_PERMUTATION[perm_class]
        path, q = self.rotation_file(tmp_path, index)
        code, report = run(capsys, [
            "sample", "--rotation", path, "--perm-class", perm_class.value,
            "--trials", "5", "--seed", str(self.SEED),
        ])
        assert code == 0
        assert len(report["samples"]) == 5
        for t, sample in enumerate(report["samples"]):
            tetra = sample_tetrahedron(q, perm_class, np.random.default_rng([self.SEED, t]))
            rotated = ProjectionQuad(apply(q, tetra.vertices)[:, :2])
            reordered = project(tetra).points[list(sigma.zero_based())]
            residual = float(np.max(np.linalg.norm(rotated.points - reordered, axis=1)))
            assert sample["vertices"] == tetra.vertices.tolist()
            assert sample["match_residual"] == residual

    def test_one_svd_per_command(self, capsys, monkeypatch, tmp_path):
        path, _ = self.rotation_file(tmp_path, 0)
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(None)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        code, report = run(capsys, [
            "sample", "--rotation", path, "--perm-class", CLASSIFICATION_CELLS[0].perm_class.value,
            "--trials", "5",
        ])
        assert code == 0
        assert len(report["samples"]) == 5
        assert len(calls) == 1


# Leaves of the fuzzed JSON documents: every JSON type, plus numbers at the
# edges of float range and integers too long for a float.
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
_KEYS = st.sampled_from(["vertices", "points", "quaternion", "axis", "angle_rad", "other"])
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=24,
)


def _grid(rows, cols):
    numbers = st.floats(allow_nan=False) | st.floats(-3.0, 3.0) | st.integers(-3, 3)
    return st.lists(st.lists(numbers, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


# Documents that pass the schema, so the fuzz reaches the numerics.
_SHAPED = (
    st.builds(dict, vertices=_grid(4, 3))
    | st.builds(dict, points=_grid(4, 2))
    | st.builds(dict, quaternion=_grid(1, 4).map(lambda rows: rows[0]))
    | st.builds(dict, axis=_grid(1, 3).map(lambda rows: rows[0]), angle_rad=st.floats(allow_nan=False))
)
# Files that are not JSON at all: an integer too long for int(), nesting too
# deep for the decoder, bytes that are not UTF-8, nothing, a cut-off document.
_RAW = st.sampled_from([b"9" * 5000, b"[" * 100_000, b"\xff{}", b"", b'{"vertices": [['])
_VALUES = st.sampled_from(
    ["0", "1", "2", "-1", "1e-9", "1e-3", "1e300", "5e-324", "nan", "inf", "abc", "18446744073709551616"]
)


@st.composite
def _argv(draw):
    """Arguments for one of the five commands: mostly well formed, with fuzzed values."""
    files = st.sampled_from(["A", "B", "-", "missing.json"])
    command = draw(st.sampled_from(["solve", "analyze", "sample", "verify-dims", "reproduce"]))
    argv = [command]
    if command == "solve":
        argv += ["--tetrahedron", draw(files), "--projection", draw(files)]
        argv += draw(st.sampled_from([[], ["--labeled"]]))
    elif command in ("analyze", "sample"):
        perm_class = draw(st.sampled_from(["identity", "two-cycle", "four-cycle", "five-cycle"]))
        argv += ["--rotation", draw(files), "--perm-class", perm_class]
    elif command == "reproduce":
        argv += [draw(st.sampled_from(["four-cycle", "norm-prune", "planar", "uniqueness-sweep", "other"]))]
    for option in ("--tol-rank", "--tol-geom", "--tol-angle", "--seed"):
        if draw(st.booleans()):
            argv += [option, draw(_VALUES)]
    if command in ("sample", "verify-dims", "reproduce"):
        argv += ["--trials", draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--labeled", "-x", "extra", "--seed"])))
    return argv


class TestFuzz:
    """Any JSON input and any argument list exit with 0, 1 or 2, never a traceback."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(first=_DOCUMENTS | _SHAPED | _RAW, second=_DOCUMENTS | _SHAPED | _RAW, argv=_argv())
    def test_exit_code_contract(self, first, second, argv):
        raw = {
            name: doc if isinstance(doc, bytes) else json.dumps(doc).encode()
            for name, doc in (("A", first), ("B", second))
        }
        with tempfile.TemporaryDirectory() as workdir:
            paths = {name: os.path.join(workdir, f"{name}.json") for name in raw}
            for name, data in raw.items():
                with open(paths[name], "wb") as handle:
                    handle.write(data)
            argv = [paths.get(arg, os.path.join(workdir, arg) if arg == "missing.json" else arg) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            stdin = io.TextIOWrapper(io.BytesIO(raw["A"]), encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch("sys.stdin", stdin):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: -h or a usage error
                    code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
