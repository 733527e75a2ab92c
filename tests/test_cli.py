import argparse
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tetrot import cli, configspace, geom, rotation
from tetrot.cli import main, parse_projection, parse_rotation, parse_tetrahedron
from tetrot.configspace import CLASSIFICATION_CELLS, sample_cell_rotation, sample_tetrahedron
from tetrot.geom import CANONICAL_PERMUTATION, ProjectionQuad, Tetrahedron, Tolerances, as_finite_array, project
from tetrot.instances import four_cycle_instance, planar_instance
from tetrot.rotation import _unit_axis, apply, quat_from_axis_angle
from tetrot.solver import DEDUPE_DISTANCE, unlabeled_solve


def write_golden_files(directory: Path) -> dict:
    """TET and PROJ: the four-cycle tetrahedron and its projection scaled by 5
    (no rotation matches it); SHADOW: the projection itself; BIG: TET scaled
    by 5, which PROJ matches; ROT: a vertical half-turn; TURN: a vertical
    turn by 1.85 rad, which lies within 0.3 of both the quarter and the third
    turn.  Each is written to directory; the result maps each name to its file."""
    inst = four_cycle_instance()
    documents = {
        "TET": {"vertices": inst.tetrahedron.vertices.tolist()},
        "PROJ": {"points": (inst.projection.points * 5.0).tolist()},
        "SHADOW": {"points": inst.projection.points.tolist()},
        "BIG": {"vertices": (inst.tetrahedron.vertices * 5.0).tolist()},
        "ROT": {"axis": [0, 0, 1], "angle_rad": math.pi},
        "TURN": {"axis": [0, 0, 1], "angle_rad": 1.85},
    }
    for key, document in documents.items():
        (directory / f"{key.lower()}.json").write_text(json.dumps(document))
    return {key: str(directory / f"{key.lower()}.json") for key in documents}


@pytest.fixture
def golden_files(tmp_path):
    return write_golden_files(tmp_path)


def invoke(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one main() call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """text parsed as RFC 8259 JSON, which has no NaN, Infinity or -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# The shared options each runnable command reads, and so takes; README's flag
# table lists the same.
SHARED_OPTIONS = {
    "solve": {"--tol-rank", "--tol-geom"},
    "analyze": {"--tol-rank", "--tol-angle"},
    "sample": {"--tol-rank", "--tol-geom", "--tol-angle", "--seed", "--trials"},
    "verify-dims": {"--tol-rank", "--tol-angle", "--seed", "--trials"},
    "reproduce four-cycle": {"--tol-rank", "--tol-geom"},
    "reproduce norm-prune": {"--tol-geom"},
    "reproduce planar": {"--tol-rank", "--tol-geom"},
    "reproduce uniqueness-sweep": {"--tol-rank", "--tol-geom", "--seed", "--trials"},
}


class TestSolveCommand:
    def test_four_cycle_unlabeled(self, capsys, golden_files):
        tet, proj = golden_files["TET"], golden_files["SHADOW"]
        code, out, _ = invoke(capsys, ["solve", "--tetrahedron", tet, "--projection", proj])
        report = json.loads(out)
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
        code, out, _ = invoke(capsys, [
            "solve", "--tetrahedron", str(tet), "--projection", str(proj), "--labeled",
        ])
        report = json.loads(out)
        assert code == 0
        assert len(report["candidates"]) == 2
        assert all(c["planar_ambiguous"] for c in report["candidates"])

    def test_incompatible_projection_exits_one(self, capsys, golden_files):
        # PROJ is the four-cycle shadow scaled by 5
        code, out, _ = invoke(capsys, ["solve", "--tetrahedron", golden_files["TET"],
                                       "--projection", golden_files["PROJ"]])
        assert code == 1
        assert json.loads(out)["candidates"] == []

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

    def test_malformed_input_exits_two(self, capsys, tmp_path, golden_files):
        proj = golden_files["SHADOW"]
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [[0, 0], [1, 1]]}')
        code = main(["solve", "--tetrahedron", str(bad), "--projection", proj])
        capsys.readouterr()
        assert code == 2

    def test_deeply_nested_input_exits_two(self, capsys, tmp_path, golden_files):
        proj = golden_files["SHADOW"]
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code = main(["solve", "--tetrahedron", str(deep), "--projection", proj])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")

    def test_missing_file_exits_two(self, capsys, golden_files):
        proj = golden_files["SHADOW"]
        code = main(["solve", "--tetrahedron", "/nonexistent.json", "--projection", proj])
        capsys.readouterr()
        assert code == 2


class TestAnalyzeCommand:
    def test_double_two_cycle_vertical_half_turn(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": math.pi}))
        code, out, _ = invoke(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "double-two-cycle",
        ])
        report = json.loads(out)
        assert code == 0
        assert report["axis_class"] == "vertical"
        assert report["case"] == "vertical-half-turn"
        assert report["rank"] == 2
        assert report["computed_dim"] == 7
        assert report["predicted_dim"] == 7

    def test_three_cycle_horizontal_quarter_turn(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [1, 0, 0], "angle_rad": math.pi / 2}))
        code, out, _ = invoke(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "three-cycle",
        ])
        assert code == 0
        assert json.loads(out)["computed_dim"] == 4

    def test_four_cycle_oblique_sixth_turn_is_generic(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [1, 0, 1], "angle_rad": math.pi / 3}))
        code, out, _ = invoke(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "four-cycle",
        ])
        report = json.loads(out)
        assert code == 0
        assert report["case"] == "oblique"
        assert report["computed_dim"] == 3

    def test_overlapping_angle_windows_take_the_first_special_angle(self, capsys, tmp_path):
        # with --tol-angle 0.3, 1.85 rad lies within both the quarter-turn and
        # the third-turn window; the label and the prediction both take the
        # first match in the order half, quarter, third
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": 1.85}))
        code, out, _ = invoke(capsys, [
            "analyze", "--rotation", str(rot), "--perm-class", "three-cycle", "--tol-angle", "0.3",
        ])
        report = json.loads(out)
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
        ("vertices", {"vertices": [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 2]]}),
        ("points", {"points": [[0, 0], [1, 0], [0, 1], [0]]}),
        ("axis", {"axis": [[0], 0, 1], "angle_rad": math.pi}),
        ("vertices", {"vertices": [[2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 0, math.nan]]}),
        ("vertices", {"vertices": [[2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 0, 1e151]]}),
        ("vertices", {"vertices": [[2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 0, 10**400]]}),
        ("points", {"points": [[0, 0], [1, 0], [0, 1], [math.nan, 0]]}),
        ("points", {"points": [[0, 0], [1, 0], [0, 1], [1e151, 0]]}),
        ("points", {"points": [[0, 0], [1, 0], [0, 1], [10**400, 0]]}),
    ])
    def test_exits_two_without_traceback(self, capsys, tmp_path, golden_files, field, content):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        # the CLI's message is the library's, for the value the file decodes to
        value = json.loads(bad.read_text())[field]
        check = {
            "vertices": Tetrahedron,
            "points": ProjectionQuad,
            "quaternion": lambda v: as_finite_array(v, (4,), field),
            "axis": lambda v: as_finite_array(v, (3,), field),
            "angle_rad": lambda v: as_finite_array(v, (), field),
        }[field]
        with pytest.raises(ValueError) as refused:
            check(value)
        tet, proj = golden_files["TET"], golden_files["SHADOW"]
        if field == "vertices":
            argv = ["solve", "--tetrahedron", str(bad), "--projection", proj]
        elif field == "points":
            argv = ["solve", "--tetrahedron", tet, "--projection", str(bad)]
        else:
            argv = ["analyze", "--rotation", str(bad), "--perm-class", "double-two-cycle"]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {refused.value}\n"
        assert err.startswith(f"error: {field} ")
        assert "Traceback" not in err


class TestAngleTolerance:
    def test_sample_rejects_a_rotation_within_tol_angle_of_identity(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [0, 0, 1], "angle_rad": 1e-8}))
        for command in ("analyze", "sample"):
            for perm_class in ("two-cycle", "four-cycle"):
                code = main([command, "--rotation", str(rot), "--perm-class", perm_class, "--tol-angle", "1e-6"])
                captured = capsys.readouterr()
                assert code == 2, command
                assert captured.out == ""
                assert captured.err == "error: the identity rotation is excluded from dimension analysis\n"

    def test_verify_dims_rejects_cell_rotations_within_tol_angle(self, capsys):
        # every rotation angle lies in [0, pi], so a tolerance above pi makes
        # every cell rotation count as the identity, whatever the draws: each
        # draw lies in no cell, so each misses its own
        code, out, err = invoke(capsys, ["verify-dims", "--trials", "2", "--tol-angle", "3.5"])
        assert (code, err) == (1, "")
        report = strict_json(out)
        assert report["ok"] is False
        assert [cell["mismatches"] for cell in report["cells"]] == [2] * len(CLASSIFICATION_CELLS)

    def test_verify_dims_finishes_when_the_tolerance_takes_some_draws(self, capsys):
        # generic angles are drawn from 0.1 upwards, so --tol-angle 0.2 takes
        # some draws for the identity: the sweep still reports every cell
        code, out, err = invoke(capsys, ["verify-dims", "--tol-angle", "0.2", "--trials", "20"])
        assert (code, err) == (1, "")
        report = strict_json(out)
        assert report["ok"] is False
        assert [cell["cell"] for cell in report["cells"]] == [cell.label() for cell in CLASSIFICATION_CELLS]
        assert all(cell["trials"] == 20 for cell in report["cells"])
        assert 0 < sum(cell["mismatches"] for cell in report["cells"]) < 20 * len(CLASSIFICATION_CELLS)

    def test_verify_dims_counts_only_the_identity_refusal(self, capsys, monkeypatch):
        # a ValueError of the rank analysis itself still ends the sweep with exit 2
        def refuse(*args):
            raise ValueError("rank analysis failed")

        monkeypatch.setattr(cli, "config_dimension", refuse)
        assert invoke(capsys, ["verify-dims", "--trials", "1"]) == (2, "", "error: rank analysis failed\n")


class TestSampleCommand:
    def test_samples_verify_and_reparse(self, capsys, tmp_path):
        rot = tmp_path / "rot.json"
        rot.write_text(json.dumps({"axis": [1, 0, 1], "angle_rad": math.pi / 3}))
        code, out, _ = invoke(capsys, [
            "sample", "--rotation", str(rot), "--perm-class", "four-cycle",
            "--trials", "3", "--seed", "9",
        ])
        report = json.loads(out)
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
        code, out, _ = invoke(capsys, ["verify-dims", "--trials", "3", "--seed", "1"])
        report = json.loads(out)
        assert code == 0
        assert report["ok"]
        assert all(cell["mismatches"] == 0 for cell in report["cells"])

    def test_deterministic_output(self, capsys):
        argv = ["verify-dims", "--trials", "2", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestRunChecks:
    """A trial count or seed out of range exits 2 with its own message and no
    report; the tolerances are checked first, then the trials, then the seed."""

    TRIALS = "error: trials must be at least 1\n"
    SEED = "error: seed must fit in 64 unsigned bits\n"

    @pytest.mark.parametrize("argv, err", [
        pytest.param(["verify-dims", "--trials", "0"], TRIALS, id="verify-dims-trials-0"),
        pytest.param(["reproduce", "uniqueness-sweep", "--trials", "0"], TRIALS, id="uniqueness-sweep-trials-0"),
        pytest.param(["sample", "--rotation", "ROT", "--perm-class", "two-cycle", "--trials", "0"], TRIALS,
                     id="sample-trials-0"),
        pytest.param(["verify-dims", "--trials", "1", "--seed", "-1"], SEED, id="verify-dims-seed-negative"),
        pytest.param(["verify-dims", "--trials", "1", "--seed", "18446744073709551616"], SEED,
                     id="verify-dims-seed-2^64"),
        pytest.param(["reproduce", "uniqueness-sweep", "--trials", "1", "--seed", "-1"], SEED,
                     id="uniqueness-sweep-seed-negative"),
        pytest.param(["reproduce", "uniqueness-sweep", "--trials", "1", "--seed", "18446744073709551616"], SEED,
                     id="uniqueness-sweep-seed-2^64"),
        pytest.param(["sample", "--rotation", "ROT", "--perm-class", "two-cycle", "--seed", "-1"], SEED,
                     id="sample-seed-negative"),
        pytest.param(["verify-dims", "--trials", "0", "--seed", "-1"], TRIALS, id="trials-before-seed"),
        pytest.param(["verify-dims", "--trials", "0", "--tol-rank", "1"], "error: rank_rel must be below 1, got 1.0\n",
                     id="tolerances-before-trials"),
    ])
    def test_exits_two_with_the_message(self, capsys, golden_files, argv, err):
        assert invoke(capsys, [golden_files.get(arg, arg) for arg in argv]) == (2, "", err)


class TestReproduceCommand:
    @pytest.mark.parametrize("name", ["four-cycle", "norm-prune", "planar"])
    def test_bundled_instances_match(self, capsys, name):
        code, out, _ = invoke(capsys, ["reproduce", name])
        assert code == 0
        assert json.loads(out)["ok"]

    def test_uniqueness_sweep(self, capsys):
        code, out, _ = invoke(capsys, ["reproduce", "uniqueness-sweep", "--trials", "50"])
        assert code == 0
        assert json.loads(out)["spurious_non_identity"] == 0

    def test_uniqueness_sweep_counts_every_candidate_the_solver_accepts(self, capsys):
        # at a loose --tol-geom the solver accepts other rotations; the sweep counts
        # each one at or beyond the dedupe distance from the identity, and fails
        tol = Tolerances(geom_abs=1e-1)
        expected = 0
        for trial in range(50):
            rng = np.random.default_rng([0, trial])
            tetra = Tetrahedron(rng.standard_normal((4, 3)))
            assert tetra.full_dimensional(tol.rank_rel)
            for cand in unlabeled_solve(tetra, project(tetra), tol):
                expected += float(np.linalg.norm(cand.matrix - np.eye(3))) >= DEDUPE_DISTANCE
        code, out, _ = invoke(capsys, ["reproduce", "uniqueness-sweep", "--trials", "50", "--tol-geom", "1e-1"])
        report = json.loads(out)
        assert expected > 0
        assert report["spurious_non_identity"] == expected
        assert not report["ok"]
        assert code == 1

    def test_a_tol_rank_no_draw_meets_exits_two(self, capsys):
        # a random tetrahedron almost never has s[2] > 0.9 s[0]; the redraws stop at a cap
        code = main(["reproduce", "uniqueness-sweep", "--trials", "1", "--tol-rank", "0.9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--tol-rank" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_name_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "no-such-instance"])
        capsys.readouterr()
        assert err.value.code == 2

    HINT = "flags follow the instance name, as in: tetrot reproduce "

    @pytest.mark.parametrize("argv, message", [
        (["--tol-geom", "1e-6", "four-cycle"], HINT + "four-cycle --tol-geom 1e-6"),
        (["--seed", "3", "uniqueness-sweep", "--trials", "3"], HINT + "uniqueness-sweep --seed 3 --trials 3"),
        (["--tol-geom", "1e-6"], HINT + "NAME --tol-geom 1e-6"),
        # after the name these flags are refused too, so no order is shown
        (["--seed", "3", "four-cycle"], "unrecognized arguments: --seed 3"),
        (["--trials", "3", "norm-prune"], "unrecognized arguments: --trials 3"),
    ], ids=["four-cycle", "uniqueness-sweep", "no-name", "four-cycle-seed", "norm-prune-trials"])
    def test_a_flag_before_the_name_is_shown_after_it(self, capsys, argv, message):
        # argparse alone reads the flag's value as the name: "invalid choice: '1e-6'"
        code, out, err = invoke(capsys, ["reproduce", *argv])
        assert code == 2
        assert out == ""
        assert err.endswith(f"error: {message}\n")
        assert "usage: tetrot reproduce [-h]" in err
        # the order shown parses as given, with NAME read as each instance name
        if message.startswith(self.HINT):
            name, *flags = message.removeprefix(self.HINT).split()
            for command in runnable_parsers():
                if command.startswith("reproduce ") and name in ("NAME", command.split()[1]):
                    cli._PARSER.parse_args([*command.split(), *flags])

    @pytest.mark.parametrize("name, key, expected", [
        ("four-cycle", "matrix_error", None),
        ("planar", "matrix_errors", [None, None]),
    ], ids=["four-cycle", "planar"])
    def test_no_matching_candidate_reports_null(self, capsys, name, key, expected):
        # at --tol-geom 1e-20 no candidate passes the gate, so no error can be measured
        code = main(["reproduce", name, "--tol-geom", "1e-20"])
        report = strict_json(capsys.readouterr().out)
        assert code == 1
        assert report[key] == expected
        assert report["ok"] is False


class TestTinyRotations:
    """A rotation given by tiny nonzero components is that of the same
    components at unit scale."""

    @pytest.mark.parametrize("document", [
        {"quaternion": [3e-170, 4e-170, 0, 0]},
        {"axis": [3e-160, 4e-160, 0], "angle_rad": 1.0},
        {"axis": [1e-300, 1e-300, 0], "angle_rad": 1.0},
    ], ids=["quaternion", "axis", "axis-1e-300"])
    def test_exits_zero(self, capsys, tmp_path, document):
        path = tmp_path / "rot.json"
        path.write_text(json.dumps(document))
        code, out, err = invoke(capsys, ["analyze", "--rotation", str(path), "--perm-class", "two-cycle"])
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert report["computed_dim"] == report["predicted_dim"]

    # at shifts -509 and -510 a cut at a norm of 2**-511 left subnormal squares unscaled
    @pytest.mark.parametrize("shift", [-509, -510, -511, -513, -520, -700, -1000])
    @pytest.mark.parametrize("key, unit", [
        ("quaternion", [0.1, 0.1, 0.3, 0.7]),
        ("axis", [0.1, 0.2, 0.3]),
    ])
    def test_same_report_as_at_unit_scale(self, capsys, tmp_path, key, unit, shift):
        reports = []
        for scale in (0, shift):
            document = {key: [math.ldexp(x, scale) for x in unit]}
            if key == "axis":
                document["angle_rad"] = 1.0
            path = tmp_path / f"rot{scale}.json"
            path.write_text(json.dumps(document))
            reports.append(invoke(capsys, ["sample", "--rotation", str(path), "--perm-class", "two-cycle"]))
        assert reports[0][0] == 0
        assert reports[1] == reports[0]


class TestParsers:
    def test_axis_path_keeps_its_bits_and_checks_the_axis_once(self, monkeypatch):
        # the TestTinyRotations axes, then random unit and non-unit axes, all drawn before any call
        documents = [([3e-160, 4e-160, 0], 1.0), ([1e-300, 1e-300, 0], 1.0)]
        documents += [([math.ldexp(x, shift) for x in (0.1, 0.2, 0.3)], 1.0)
                      for shift in (0, -509, -510, -511, -513, -520, -700, -1000)]
        rng = np.random.default_rng(2201)
        for scale in (1.0, 1e-3, 7.5, 1e12):
            for _ in range(50):
                axis = rng.standard_normal(3)
                documents.append(((axis / np.linalg.norm(axis) * scale).tolist(), rng.uniform(-7.0, 7.0)))
        # the path that checked the axis twice: as_finite_array and a norm in _unit_axis, then both again
        expected = [quat_from_axis_angle(_unit_axis(as_finite_array(axis, (3,), "axis")), angle)
                    for axis, angle in documents]
        # _unit_axis takes a second norm only after lifting an axis shorter than _TINY_NORM
        norm = np.linalg.norm
        expected_norms = [1 if norm(axis) >= rotation._TINY_NORM else 2 for axis, _ in documents]
        checked, norms = [], []

        def counted_check(values, shape, name):
            checked.append(name)
            return as_finite_array(values, shape, name)

        for module in (cli, rotation):
            monkeypatch.setattr(module, "as_finite_array", counted_check)
        monkeypatch.setattr(np.linalg, "norm", lambda x, *args, **kw: norms.append(x) or norm(x, *args, **kw))
        def bits(q):
            return [x.hex() for x in (q.a, q.b, q.c, q.d)]

        for (axis, angle), want, norm_count in zip(documents, expected, expected_norms):
            checked.clear()
            norms.clear()
            assert bits(parse_rotation({"axis": axis, "angle_rad": angle})) == bits(want)
            assert checked == ["axis", "angle_rad"]
            assert len(norms) == norm_count

    def test_rotation_from_quaternion(self):
        q = parse_rotation({"quaternion": [0, 0, 0, 1]})
        assert (q.a, q.b, q.c, q.d) == (0.0, 0.0, 0.0, 1.0)

    def test_rotation_from_axis_angle_normalizes_axis(self):
        q = parse_rotation({"axis": [0, 0, 5], "angle_rad": math.pi})
        np.testing.assert_allclose(q.as_array(), [0, 0, 0, 1], atol=1e-15)

    def test_rotation_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            parse_rotation({"angle_deg": 90})

    @pytest.mark.parametrize("argv, document, err", [
        (["solve", "--tetrahedron", "TET", "--projection"], {"pts": [[0, 0]] * 4},
         'error: projection input must be {"points": [[x, y] * 4]}\n'),
        (["analyze", "--perm-class", "two-cycle", "--rotation"], {"axis": [0, 0, 0], "angle_rad": 1.0},
         "error: rotation axis must be nonzero\n"),
    ], ids=["projection-without-points", "zero-axis"])
    def test_a_refused_document_exits_two_with_its_message(self, capsys, tmp_path, golden_files, argv, document, err):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert invoke(capsys, [golden_files.get(arg, arg) for arg in argv] + [str(bad)]) == (2, "", err)

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

    def test_decoder_error_names_the_file(self, capsys, tmp_path, golden_files):
        proj = golden_files["SHADOW"]
        bad = tmp_path / "bad.json"
        bad.write_text(self.BAD)
        code = main(["solve", "--tetrahedron", str(bad), "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bad}: {self.decoder_message()}\n"

    def test_decoder_error_names_stdin(self, capsys, monkeypatch, golden_files):
        proj = golden_files["SHADOW"]
        monkeypatch.setattr("sys.stdin", io.StringIO(self.BAD))
        code = main(["solve", "--tetrahedron", "-", "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == f"error: <stdin>: {self.decoder_message()}\n"

    def test_undecodable_file_is_named(self, capsys, tmp_path, golden_files):
        proj = golden_files["SHADOW"]
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff{}")
        code = main(["solve", "--tetrahedron", str(bad), "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_too_deep_stdin_is_named(self, capsys, monkeypatch, golden_files):
        proj = golden_files["SHADOW"]
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        code = main(["solve", "--tetrahedron", "-", "--projection", proj])
        assert code == 2
        assert capsys.readouterr().err == "error: <stdin>: JSON nested too deeply\n"

    def test_stdin_feeds_one_input(self, capsys, monkeypatch, golden_files):
        tet = golden_files["TET"]
        with open(tet) as handle:
            monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
        code = main(["solve", "--tetrahedron", "-", "--projection", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: stdin can feed only one input, but --tetrahedron and --projection are both -\n"
        )


def reference_load(path: str):
    """What text mode and json.load give for the file at path: its value, or
    the type (ValueError for any of its kinds) and message of the error they raise."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:  # a decoder error or bytes that are not UTF-8
        return ValueError, str(exc)
    except OSError as exc:
        return type(exc), str(exc)


def loaded(path: str):
    """What _load_json gives for the file at path, its ValueError's message
    without the file's name, so that it reads as reference_load's."""
    try:
        return cli._load_json(path)
    except ValueError as exc:
        prefix = f"{path}: "
        assert str(exc).startswith(prefix)
        return ValueError, str(exc)[len(prefix):]
    except OSError as exc:
        return type(exc), str(exc)


# Files whose reading text mode decides: CR and CRLF line ends, each in a valid
# document and before an error, and inside a string; a byte-order mark; a byte
# that is not UTF-8 past the first 8 KiB; a sequence cut at the end; nothing.
_READER_FILES = {
    "crlf": b'{"vertices":\r\n  [[1, 0, 0], [0, 1, 0],\r\n   [0, 0, 1], [-1, -1, -1]]}\r\n',
    "crlf-error": b'{"vertices":\r\n  [[1, 0, 0]\r\n   [0, 1, 0]]}\r\n',
    "cr": b'{"vertices":\r  [[1, 0, 0], [0, 1, 0],\r   [0, 0, 1], [-1, -1, -1]]}\r',
    "cr-error": b'{"vertices":\r  [[1, 0, 0]\r   [0, 1, 0]]}\r',
    "cr-in-string": b'{"key\r\nname":\r\r\n 1}',
    "bom": b'\xef\xbb\xbf{"vertices": []}',
    "invalid-byte-past-8k": b'{"pad": "' + b"x" * 20_000 + b'\xe9", "vertices": []}',
    "cut-sequence-at-end": b'{"vertices": []}\xe2\x82',
    "empty": b"",
}


class TestReader:
    """_load_json reads a file as open(path, encoding="utf-8") and json.load
    read it, in one read and one decode, and holds stdin to the same strict
    UTF-8."""

    @pytest.mark.parametrize("name", sorted(_READER_FILES))
    def test_same_value_or_message_as_text_mode(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(_READER_FILES[name])
        assert loaded(str(path)) == reference_load(str(path))

    def test_same_error_for_a_directory_and_a_missing_path(self, tmp_path):
        for path in (str(tmp_path), str(tmp_path / "missing.json")):
            expected = reference_load(path)
            assert issubclass(expected[0], OSError)
            assert loaded(path) == expected

    def test_line_ends_reach_the_decoder_as_text_mode_gives_them(self, tmp_path):
        # the line, column and char index count each CRLF as one character, "\n"
        path = tmp_path / "crlf.json"
        path.write_bytes(_READER_FILES["crlf-error"])
        kind, message = loaded(str(path))
        assert (kind, message) == (ValueError, "Expecting ',' delimiter: line 3 column 4 (char 29)")

    def test_bytes_are_never_handed_to_the_decoder(self, tmp_path):
        # json.loads(bytes) would read UTF-16; a file is UTF-8 text or an error
        path = tmp_path / "utf16.json"
        path.write_bytes('{"vertices": []}'.encode("utf-16"))
        assert json.loads(path.read_bytes()) == {"vertices": []}
        assert loaded(str(path))[0] is ValueError
        assert loaded(str(path)) == reference_load(str(path))

    def test_stdin_that_is_not_utf8_is_refused(self, capsys, monkeypatch, golden_files):
        # a stdin that would pass the byte 0xe9 through as a lone surrogate,
        # as Python's own stdin does in UTF-8 mode, is read as strict UTF-8
        with open(golden_files["TET"], "rb") as handle:
            raw = handle.read().replace(b'"vertices"', b'"vertices", "\xe9": 1', 1)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                                          errors="surrogateescape"))
        position = raw.index(b"\xe9")
        assert invoke(capsys, ["solve", "--tetrahedron", "-", "--projection", golden_files["SHADOW"]]) == (
            2, "", f"error: <stdin>: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
                   "invalid continuation byte\n")

    def test_stdin_line_ends_are_read_as_given(self, capsys, monkeypatch, golden_files):
        # POSIX stdin translates no newline (newline="\n"), so a CRLF document's
        # error counts each CR as a character, as json.loads of its bytes does
        crlf = b'{"vertices":\r\n [[1, 0, 0]\r\n [0, 1, 0]]}'
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(crlf.decode())
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(crlf), encoding="utf-8", newline="\n"))
        assert invoke(capsys, ["solve", "--tetrahedron", "-", "--projection", golden_files["SHADOW"]]) == (
            2, "", f"error: <stdin>: {expected.value}\n")

    def test_stdin_of_a_fresh_process(self, golden_files):
        # Python's UTF-8 mode gives sys.stdin errors="surrogateescape"; the
        # byte 0xe9 is refused there as it is in a file
        with open(golden_files["TET"], "rb") as handle:
            latin = handle.read().replace(b'"vertices"', b'"vertices", "\xe9": 1', 1)
        proc = subprocess.run([sys.executable, "-m", "tetrot.cli", "solve", "--tetrahedron", "-",
                               "--projection", golden_files["SHADOW"]],
                              input=latin, capture_output=True, env=dict(src_env(), PYTHONUTF8="1"), timeout=120)
        position = latin.index(b"\xe9")
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (
            2, b"", f"error: <stdin>: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
                    "invalid continuation byte\n")


class TestClosedStdout:
    """A reader that closes the pipe of stdout or stderr early changes no exit
    code: the command keeps its own, an error keeps 2, and nothing reaches
    the stream still open."""

    @pytest.mark.parametrize("closed, argv, expected", [
        ("stdout", ["reproduce", "four-cycle"], 0),
        ("stdout", ["reproduce", "four-cycle", "--tol-geom", "1e-20"], 1),
        ("stderr", ["solve", "--tetrahedron", "/nonexistent.json", "--projection", "/x.json"], 2),
    ], ids=["match", "no-match", "error-line"])
    def test_exit_code_and_empty_stderr(self, closed, argv, expected):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe now fails with EPIPE
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write}
        # buffered streams, as Python opens them by default: a write that failed
        # stays in the buffer, and the flush at exit would turn the code into 120
        env = {key: value for key, value in src_env().items() if key != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run([sys.executable, "-m", "tetrot.cli", *argv], **streams,
                                  env=env, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == expected
        # the closed stream was a descriptor, so subprocess captured only the open one
        assert {proc.stdout, proc.stderr} == {None, b""}

    def test_an_error_line_with_no_reader_exits_two(self, capsys, monkeypatch):
        read, write = os.pipe()
        os.close(read)
        # line-buffered, as Python's own stderr: the error line's write raises BrokenPipeError
        with open(write, "w", buffering=1) as stderr:
            monkeypatch.setattr(sys, "stderr", stderr)
            assert invoke(capsys, ["solve", "--tetrahedron", "/nonexistent.json", "--projection", "/x.json"]) == (
                2, "", "")
            # the line left in the buffer now goes to devnull, as Python's flush at exit would send it
            stderr.flush()


class TestClosedAtStart:
    """Python sets sys.stdin or sys.stdout to None when that descriptor was
    closed at start (`<&-`, `>&-`); a command that needs it exits 2 with one
    error line."""

    @pytest.mark.parametrize("stream, argv", [
        ("stdin", ["solve", "--tetrahedron", "-", "--projection", "SHADOW"]),
        ("stdout", ["reproduce", "four-cycle"]),
        # argparse would print the help to stderr and exit 0
        ("stdout", ["-h"]),
    ], ids=["stdin", "stdout", "stdout-help"])
    def test_exits_two_with_one_error_line(self, capsys, monkeypatch, golden_files, stream, argv):
        monkeypatch.setattr(sys, stream, None)
        assert invoke(capsys, [golden_files.get(arg, arg) for arg in argv]) == (2, "", f"error: {stream} is closed\n")

    def test_closed_stderr_leaves_stdout_empty(self, capsys, monkeypatch):
        # print(..., file=None) writes to stdout, where a reader expects JSON
        monkeypatch.setattr(sys, "stderr", None)
        assert invoke(capsys, ["solve", "--tetrahedron", "/nonexistent", "--projection", "x"]) == (2, "", "")


# stdout, stderr and exit code of each case, captured under Python 3.11 with
# COLUMNS=80; the help and usage text lists only the shared options each
# command reads
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
    "non-float-tol-geom": ["reproduce", "four-cycle", "--tol-geom", "abc"],
    "abbreviated-tetr": ["solve", "--tetr", "TET", "--projection", "PROJ"],
    "extra-positional": ["reproduce", "four-cycle", "extra"],
    # reports whose bytes no BLAS affects, in every container shape a report
    # has: a flat object, lists of lists, a list of objects
    "analyze-report": ["analyze", "--rotation", "ROT", "--perm-class", "double-two-cycle"],
    "norm-prune-report": ["reproduce", "norm-prune"],
    "verify-dims-report": ["verify-dims", "--trials", "1"],
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
        ),
        "",
    ),
    "analyze-help": (
        0,
        (
            "usage: tetrot analyze [-h] --rotation ROTATION --perm-class\n"
            "                      {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "                      [--tol-rank TOL_RANK] [--tol-angle TOL_ANGLE]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            '  --rotation ROTATION   JSON file {"quaternion": ...} or {"axis": ...,\n'
            '                        "angle_rad": ...} or -\n'
            "  --perm-class {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
            "  --tol-angle TOL_ANGLE\n"
            "                        tolerance for axis components and special angles;\n"
            "                        above pi/12 the half-, quarter- and third-turn windows\n"
            "                        overlap, and the first match in that order decides\n"
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
            "usage: tetrot verify-dims [-h] [--tol-rank TOL_RANK] [--tol-angle TOL_ANGLE]\n"
            "                          [--seed SEED] [--trials TRIALS]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --tol-rank TOL_RANK   relative singular-value cutoff for rank decisions\n"
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
            "usage: tetrot reproduce [-h]\n"
            "                        {four-cycle,norm-prune,planar,uniqueness-sweep} ...\n"
            "\n"
            "positional arguments:\n"
            "  {four-cycle,norm-prune,planar,uniqueness-sweep}\n"
            "    four-cycle          ambiguous instance, two rotations\n"
            "    norm-prune          norm test leaves only the identity\n"
            "    planar              coplanar instance with two solutions\n"
            "    uniqueness-sweep    random tetrahedra, identity only\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
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
            "tetrot solve: error: the following arguments are required: --projection\n"
        ),
    ),
    "bad-perm-class": (
        2,
        "",
        (
            "usage: tetrot analyze [-h] --rotation ROTATION --perm-class\n"
            "                      {identity,two-cycle,double-two-cycle,three-cycle,four-cycle}\n"
            "                      [--tol-rank TOL_RANK] [--tol-angle TOL_ANGLE]\n"
            "tetrot analyze: error: argument --perm-class: invalid choice: 'five-cycle' (choose from 'identity', 'two-cycle', 'double-two-cycle', 'three-cycle', 'four-cycle')\n"
        ),
    ),
    "non-float-tol-geom": (
        2,
        "",
        (
            "usage: tetrot reproduce four-cycle [-h] [--tol-rank TOL_RANK]\n"
            "                                   [--tol-geom TOL_GEOM]\n"
            "tetrot reproduce four-cycle: error: argument --tol-geom: invalid float value: 'abc'\n"
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
    "analyze-report": (
        0,
        (
            "{\n"
            '  "command": "analyze",\n'
            '  "perm_class": "double-two-cycle",\n'
            '  "axis_class": "vertical",\n'
            '  "angle_rad": 3.141592653589793,\n'
            '  "case": "vertical-half-turn",\n'
            '  "rank": 2,\n'
            '  "computed_dim": 7,\n'
            '  "predicted_dim": 7\n'
            "}\n"
        ),
        "",
    ),
    "norm-prune-report": (
        0,
        (
            "{\n"
            '  "command": "reproduce",\n'
            '  "name": "norm-prune",\n'
            '  "survivors": [\n'
            "    [\n"
            "      1,\n"
            "      2,\n"
            "      3,\n"
            "      4\n"
            "    ]\n"
            "  ],\n"
            '  "ok": true\n'
            "}\n"
        ),
        "",
    ),
    "verify-dims-report": (
        0,
        (
            "{\n"
            '  "command": "verify-dims",\n'
            '  "seed": 0,\n'
            '  "cells": [\n'
            "    {\n"
            '      "cell": "identity / oblique / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 3,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "identity / horizontal / angle in (0.10, 3.14)",\n'
            '      "expected_dim": 6,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "two-cycle / oblique / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 3,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "two-cycle / horizontal / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 5,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "two-cycle / horizontal / half-turn",\n'
            '      "expected_dim": 6,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "two-cycle / vertical / half-turn",\n'
            '      "expected_dim": 5,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "two-cycle / oblique / half-turn",\n'
            '      "expected_dim": 4,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "double-two-cycle / oblique / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 3,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "double-two-cycle / horizontal / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 4,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "double-two-cycle / horizontal / half-turn",\n'
            '      "expected_dim": 6,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "double-two-cycle / vertical / half-turn",\n'
            '      "expected_dim": 7,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "double-two-cycle / oblique / half-turn",\n'
            '      "expected_dim": 5,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "three-cycle / oblique / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 3,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "three-cycle / horizontal / angle in (0.10, 3.14)",\n'
            '      "expected_dim": 4,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "three-cycle / vertical / third-turn",\n'
            '      "expected_dim": 5,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "four-cycle / oblique / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 3,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "four-cycle / vertical / quarter-turn",\n'
            '      "expected_dim": 5,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "four-cycle / vertical / half-turn",\n'
            '      "expected_dim": 5,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "four-cycle / oblique / half-turn",\n'
            '      "expected_dim": 4,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "four-cycle / horizontal / angle in (0.10, 3.00)",\n'
            '      "expected_dim": 3,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    },\n"
            "    {\n"
            '      "cell": "four-cycle / horizontal / half-turn",\n'
            '      "expected_dim": 4,\n'
            '      "trials": 1,\n'
            '      "mismatches": 0\n'
            "    }\n"
            "  ],\n"
            '  "ok": true\n'
            "}\n"
        ),
        "",
    ),
}


def runnable_parsers() -> dict:
    """Each command a user runs, as typed ("solve", "reproduce planar", ...), and its parser."""
    parsers, pending = {}, [("", cli._PARSER)]
    while pending:
        command, parser = pending.pop()
        subcommands = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if subcommands:
            pending.extend((f"{command} {name}".strip(), sub) for name, sub in subcommands[0].items())
        else:
            parsers[command] = parser
    return parsers


def long_options(parser: argparse.ArgumentParser) -> set:
    """The long options a parser takes, --help aside."""
    return {s for action in parser._actions for s in action.option_strings if s.startswith("--")} - {"--help"}


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
    def test_same_as_options_added_up_front(self, capsys, monkeypatch, fresh_process, case):
        # the shared parser, after whatever calls it served, prints what a fresh
        # process prints, whose parser got every option on import
        same_as_fresh(capsys, monkeypatch, fresh_process, GOLDEN_ARGV[case])


# Each runnable command with a shared option it does not read, last.
UNREAD_ARGV = [
    ["solve", "--tetrahedron", "TET", "--projection", "PROJ", "--tol-angle", "0.1"],
    ["solve", "--tetrahedron", "TET", "--projection", "PROJ", "--seed", "7"],
    ["analyze", "--rotation", "ROT", "--perm-class", "double-two-cycle", "--tol-geom", "0.1"],
    ["analyze", "--rotation", "ROT", "--perm-class", "double-two-cycle", "--seed", "7"],
    ["verify-dims", "--trials", "1", "--tol-geom", "0.1"],
    ["reproduce", "four-cycle", "--tol-angle", "0.1"],
    # each reproduce name has its own parser, which takes only what its replay reads
    pytest.param(["reproduce", "four-cycle", "--seed", "7"], id="reproduce-four-cycle-seed"),
    pytest.param(["reproduce", "four-cycle", "--trials", "3"], id="reproduce-four-cycle-trials"),
    pytest.param(["reproduce", "planar", "--seed", "7"], id="reproduce-planar-seed"),
    pytest.param(["reproduce", "planar", "--trials", "3"], id="reproduce-planar-trials"),
    pytest.param(["reproduce", "norm-prune", "--tol-rank", "0.5"], id="reproduce-norm-prune-tol-rank"),
    pytest.param(["reproduce", "norm-prune", "--seed", "7"], id="reproduce-norm-prune-seed"),
    pytest.param(["reproduce", "norm-prune", "--trials", "3"], id="reproduce-norm-prune-trials"),
]


class TestUnreadOptionsRefused:
    @pytest.mark.parametrize("argv", UNREAD_ARGV, ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
    def test_exits_two_as_unrecognized(self, capsys, golden_files, argv):
        code, out, err = invoke(capsys, [golden_files.get(arg, arg) for arg in argv])
        assert code == 2
        assert out == ""
        assert err.endswith(f"tetrot: error: unrecognized arguments: {argv[-2]} {argv[-1]}\n")


# For each flag of each runnable command, arguments in which changing only
# that flag's value changes the exit code or stdout: the command reads it.
# The second entry is the other value, or None to leave the flag out.
READ_FLAGS = {
    ("solve", "--tetrahedron"): (["solve", "--tetrahedron", "TET", "--projection", "PROJ"], "BIG"),
    ("solve", "--projection"): (["solve", "--tetrahedron", "TET", "--projection", "PROJ"], "SHADOW"),
    ("solve", "--labeled"): (["solve", "--tetrahedron", "TET", "--projection", "SHADOW", "--labeled"], None),
    # at 0.1 fewer singular values of the four-cycle tetrahedron count
    ("solve", "--tol-rank"): (["solve", "--tetrahedron", "TET", "--projection", "SHADOW", "--tol-rank", "0.1"],
                              "1e-9"),
    ("solve", "--tol-geom"): (["solve", "--tetrahedron", "TET", "--projection", "SHADOW", "--tol-geom", "1e-20"],
                              "1e-8"),
    ("analyze", "--rotation"): (["analyze", "--rotation", "ROT", "--perm-class", "three-cycle"], "TURN"),
    ("analyze", "--perm-class"): (["analyze", "--rotation", "ROT", "--perm-class", "three-cycle"], "two-cycle"),
    ("analyze", "--tol-rank"): (["analyze", "--rotation", "ROT", "--perm-class", "three-cycle", "--tol-rank", "0.5"],
                                "1e-9"),
    ("analyze", "--tol-angle"): (["analyze", "--rotation", "TURN", "--perm-class", "three-cycle",
                                  "--tol-angle", "0.3"], "1e-9"),
    ("sample", "--rotation"): (["sample", "--rotation", "ROT", "--perm-class", "three-cycle"], "TURN"),
    ("sample", "--perm-class"): (["sample", "--rotation", "ROT", "--perm-class", "three-cycle"], "two-cycle"),
    ("sample", "--tol-rank"): (["sample", "--rotation", "TURN", "--perm-class", "three-cycle", "--tol-rank", "0.5"],
                               "1e-9"),
    ("sample", "--tol-geom"): (["sample", "--rotation", "TURN", "--perm-class", "three-cycle", "--tol-geom", "1e-20"],
                               "1e-8"),
    # above 1.85 rad every vertical turn by TURN's angle counts as the identity
    ("sample", "--tol-angle"): (["sample", "--rotation", "TURN", "--perm-class", "three-cycle", "--tol-angle", "2"],
                                "1e-9"),
    ("sample", "--seed"): (["sample", "--rotation", "TURN", "--perm-class", "three-cycle", "--seed", "1"], "2"),
    ("sample", "--trials"): (["sample", "--rotation", "TURN", "--perm-class", "three-cycle", "--trials", "1"], "2"),
    ("verify-dims", "--tol-rank"): (["verify-dims", "--trials", "1", "--tol-rank", "0.5"], "1e-9"),
    ("verify-dims", "--tol-angle"): (["verify-dims", "--trials", "1", "--tol-angle", "3.5"], "1e-9"),
    ("verify-dims", "--seed"): (["verify-dims", "--trials", "1", "--seed", "1"], "2"),
    ("verify-dims", "--trials"): (["verify-dims", "--trials", "1"], "2"),
    ("reproduce four-cycle", "--tol-rank"): (["reproduce", "four-cycle", "--tol-rank", "0.1"], "1e-9"),
    ("reproduce four-cycle", "--tol-geom"): (["reproduce", "four-cycle", "--tol-geom", "1e-20"], "1e-8"),
    # at 10 the norm test admits more relabelings than the identity
    ("reproduce norm-prune", "--tol-geom"): (["reproduce", "norm-prune", "--tol-geom", "10"], "1e-8"),
    ("reproduce planar", "--tol-rank"): (["reproduce", "planar", "--tol-rank", "0.5"], "1e-9"),
    ("reproduce planar", "--tol-geom"): (["reproduce", "planar", "--tol-geom", "1e-20"], "1e-8"),
    ("reproduce uniqueness-sweep", "--tol-rank"): (["reproduce", "uniqueness-sweep", "--trials", "1",
                                                    "--tol-rank", "0.9"], "1e-9"),
    ("reproduce uniqueness-sweep", "--tol-geom"): (["reproduce", "uniqueness-sweep", "--trials", "10",
                                                    "--tol-geom", "0.1"], "1e-8"),
    # at a loose --tol-geom the spurious count depends on the draws
    ("reproduce uniqueness-sweep", "--seed"): (["reproduce", "uniqueness-sweep", "--trials", "10",
                                                "--tol-geom", "0.1", "--seed", "0"], "1"),
    ("reproduce uniqueness-sweep", "--trials"): (["reproduce", "uniqueness-sweep", "--trials", "1"], "2"),
}


class TestEveryFlagIsRead:
    @pytest.mark.parametrize("command", sorted(SHARED_OPTIONS), ids=lambda value: value.replace(" ", "-"))
    def test_the_table_covers_every_flag_of_every_runnable_command(self, command):
        parsers = runnable_parsers()
        assert {listed for listed, _ in READ_FLAGS} == set(parsers)
        parser = parsers[command]
        assert long_options(parser) == {flag for listed, flag in READ_FLAGS if listed == command}
        # besides those, it takes -h and --help, and no other short option
        strings = {s for action in parser._actions for s in action.option_strings}
        assert strings - long_options(parser) == {"-h", "--help"}

    @pytest.mark.parametrize("command, flag", sorted(READ_FLAGS), ids=lambda value: value.replace(" ", "-"))
    def test_changing_only_the_flag_changes_the_outcome(self, capsys, golden_files, command, flag):
        argv, other = READ_FLAGS[command, flag]
        at = argv.index(flag)
        changed = argv[:at] + argv[at + 1:] if other is None else argv[:at + 1] + [other] + argv[at + 2:]
        first, second = ([golden_files.get(arg, arg) for arg in words] for words in (argv, changed))
        assert invoke(capsys, first)[:2] != invoke(capsys, second)[:2]

    def test_shared_options_are_the_parsers(self):
        shared = {"--tol-rank", "--tol-geom", "--tol-angle", "--seed", "--trials"}
        taken = {command: long_options(parser) & shared for command, parser in runnable_parsers().items()}
        assert taken == SHARED_OPTIONS

    def test_readme_table_lists_the_shared_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = {}
        for row in re.findall(r"^\| `([a-z -]+)` +\| (`--.*) \|$", readme, flags=re.MULTILINE):
            table[row[0]] = set(re.findall(r"`(--[a-z-]+)`", row[1]))
        assert table == SHARED_OPTIONS


# One command of each runnable kind, as golden_files names its inputs.
COMMAND_ARGV = [
    ["solve", "--tetrahedron", "TET", "--projection", "PROJ"],
    ["analyze", "--rotation", "ROT", "--perm-class", "double-two-cycle"],
    ["sample", "--rotation", "ROT", "--perm-class", "two-cycle"],
    ["verify-dims", "--trials", "1"],
    ["reproduce", "four-cycle"],
    ["reproduce", "norm-prune"],
    ["reproduce", "planar"],
    ["reproduce", "uniqueness-sweep", "--trials", "1"],
]


def count_parser_building(patch) -> dict:
    """From now on, the number of ArgumentParsers built and arguments added;
    patch(owner, name, value) installs the counting methods."""
    counts = {"built": 0, "added": 0}
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        counts["added"] += 1
        return add_argument(self, *args, **kwargs)

    patch(argparse.ArgumentParser, "__init__", counting_init)
    patch(argparse.ArgumentParser, "add_argument", counting_add)
    return counts


# A fresh process: it counts what is built from the import of tetrot.cli on,
# runs main() on each argument list of its JSON argument in turn, and prints
# each call's [exit code, stdout, stderr] and the counts after it as JSON.
_COUNTING_CHILD = "import argparse, contextlib, io, json, sys\nimport tetrot.cli\n" + inspect.getsource(
    count_parser_building) + """
counts = count_parser_building(setattr)
calls = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tetrot.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    calls.append([code, out.getvalue(), err.getvalue(), dict(counts)])
print(json.dumps(calls))
"""

# A refused reproduce order, then the accepted one, on the same parser.
FAILING = ["reproduce", "--tol-geom", "1e-6", "four-cycle"]
PASSING = ["reproduce", "four-cycle", "--tol-geom", "1e-6"]


def command_id(argv: list) -> str:
    return "-".join(argv[:1 + (argv[0] == "reproduce")])


@pytest.fixture(scope="module")
def fresh_process(tmp_path_factory) -> dict:
    """One fresh process runs every golden case, every runnable command, and
    FAILING then PASSING, under COLUMNS=80; an argument list that is both a
    golden case and a command runs once.  For each argument list as written
    here: the list with golden files named, the call's (exit code, stdout,
    stderr), and the parsers built and arguments added from the import up to
    the end of that call."""
    files = write_golden_files(tmp_path_factory.mktemp("fresh"))
    words = list(dict.fromkeys(map(tuple, [*GOLDEN_ARGV.values(), *COMMAND_ARGV, FAILING, PASSING])))
    argvs = [[files.get(arg, arg) for arg in argv] for argv in words]
    proc = subprocess.run([sys.executable, "-c", _COUNTING_CHILD, json.dumps(argvs)], capture_output=True,
                          text=True, env=dict(src_env(), COLUMNS="80"), timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    return {argv: (resolved, tuple(call[:3]), call[3])
            for argv, resolved, call in zip(words, argvs, calls, strict=True)}


def same_as_fresh(capsys, monkeypatch, fresh_process, words: list) -> tuple:
    """The fresh process's call of words, after checking that it built nothing
    and that the same call here prints the same and builds nothing."""
    argv, call, built = fresh_process[tuple(words)]
    assert built == {"built": 0, "added": 0}
    monkeypatch.setenv("COLUMNS", "80")
    counts = count_parser_building(monkeypatch.setattr)
    assert invoke(capsys, argv) == call
    assert counts == {"built": 0, "added": 0}
    return call


class TestParserReuse:
    """The parser is built on import; a call builds nothing and prints the bytes
    a freshly built parser prints, whichever calls came before it.  Every
    fresh-process call here comes from the one process of fresh_process."""

    @pytest.mark.parametrize("argv", COMMAND_ARGV, ids=command_id)
    def test_a_first_call_builds_nothing(self, fresh_process, argv):
        # the fresh process's only calls before this one are golden cases
        _, (code, _, err), built = fresh_process[tuple(argv)]
        assert code in (0, 1)
        assert err == ""
        assert built == {"built": 0, "added": 0}

    @pytest.mark.parametrize("argv", COMMAND_ARGV, ids=command_id)
    def test_a_second_call_builds_nothing(self, capsys, monkeypatch, fresh_process, argv):
        # twice here, so that at least one call follows the same call in this process
        for _ in range(2):
            code, _, err = same_as_fresh(capsys, monkeypatch, fresh_process, argv)
        assert code in (0, 1)
        assert err == ""

    def test_golden_cases_repeated_and_interleaved(self, capsys, monkeypatch, golden_files):
        monkeypatch.setenv("COLUMNS", "80")
        argvs = {case: [golden_files.get(arg, arg) for arg in words] for case, words in GOLDEN_ARGV.items()}
        used = cli._PARSER
        fresh = {}
        for case, argv in argvs.items():
            monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
            fresh[case] = invoke(capsys, argv)
        if sys.version_info[:2] == (3, 11):
            assert fresh == GOLDEN
        monkeypatch.setattr(cli, "_PARSER", used)
        order = [case for case in sorted(argvs) for _ in range(2)] + sorted(argvs, reverse=True)
        for case in order:
            assert invoke(capsys, argvs[case]) == fresh[case], case

    def test_a_failing_call_then_a_passing_one(self, capsys, monkeypatch, fresh_process):
        # the same reproduce parser refuses the first order and accepts the second
        codes = [same_as_fresh(capsys, monkeypatch, fresh_process, argv)[0] for argv in (FAILING, PASSING)]
        assert codes == [2, 0]


# Argument lists through every parser of the tree and out of it each way: the
# golden cases (-h of the top level and of each command, no arguments, an
# unknown command, usage errors), every runnable command, a shared option each
# one does not read, a flag before the instance name, and the cases below.
WALK_ARGV = list(map(list, dict.fromkeys(map(tuple, [
    *GOLDEN_ARGV.values(),
    *COMMAND_ARGV,
    *(getattr(entry, "values", [entry])[0] for entry in UNREAD_ARGV),
    FAILING,
    PASSING,
    *(["reproduce", name, "-h"] for name in ("four-cycle", "norm-prune", "planar", "uniqueness-sweep")),
    ["reproduce", "--seed", "3", "four-cycle"],
    ["reproduce", "no-such-instance"],
    ["reproduce", "four-cycle", "planar"],
    ["solve", "--tetra", "TET", "--projection", "PROJ"],
    ["--", "reproduce", "four-cycle"],
    ["reproduce", "--", "four-cycle"],
    ["reproduce", "four-cycle", "--"],
    ["solve", "--", "--tetrahedron", "TET", "--projection", "PROJ"],
    ["--tol-geom", "1e-6", "reproduce", "four-cycle"],
]))))


# Spellings that only argparse's pass reads: help, an abbreviation,
# --opt=value, --, a repeated option, a value that begins with "-" (stdin's
# -, a negative number), a missing required option, a value outside the
# choices or beyond the type, a stray word, no instance name, and a flag
# before the command.
ARGPARSE_ARGV = [
    ["solve", "-h"],
    ["solve", "--tetra", "TET", "--projection", "PROJ"],
    ["solve", "--tetrahedron=TET", "--projection", "PROJ"],
    ["solve", "--tetrahedron", "TET", "--", "--projection", "PROJ"],
    ["solve", "--tetrahedron", "TET", "--projection", "PROJ", "--labeled", "--labeled"],
    ["solve", "--tetrahedron", "TET", "--projection", "PROJ", "--tetrahedron", "BIG"],
    ["solve", "--tetrahedron", "-", "--projection", "PROJ"],
    ["sample", "--rotation", "ROT", "--perm-class", "two-cycle", "--seed", "-1"],
    ["solve", "--tetrahedron", "TET"],
    ["analyze", "--rotation", "ROT", "--perm-class", "five-cycle"],
    ["verify-dims", "--trials", "x"],
    ["reproduce", "four-cycle", "extra"],
    ["reproduce"],
    ["--tol-geom", "1e-6", "reproduce", "four-cycle"],
]

# The argument shapes of the benchmark's cli workload, as golden_files names its inputs.
WORKLOAD_ARGV = [
    ["solve", "--tetrahedron", "TET", "--projection", "SHADOW"],
    ["solve", "--tetrahedron", "TET", "--projection", "SHADOW", "--labeled"],
    ["analyze", "--rotation", "ROT", "--perm-class", "double-two-cycle"],
    ["sample", "--rotation", "ROT", "--perm-class", "double-two-cycle", "--trials", "5", "--seed", "3047"],
    ["reproduce", "four-cycle"],
]

# A plain spelling for each runnable parser that the workload's shapes miss.
PLAIN_ARGV = [
    ["verify-dims", "--trials", "3", "--seed", "5"],
    ["reproduce", "norm-prune", "--tol-geom", "1e-6"],
    ["reproduce", "planar", "--tol-rank", "1e-9", "--tol-geom", "1e-6"],
    ["reproduce", "uniqueness-sweep", "--trials", "2", "--seed", "7"],
]


def parse_outcome(parse, argv) -> tuple:
    """What parse(argv) gives: its namespace, floats by repr so that NaN equals
    NaN, or None with the exit code; then what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            namespace, code = {key: repr(value) for key, value in vars(parse(argv)).items()}, None
        except SystemExit as exc:  # help or a usage error
            namespace, code = None, exc.code
    return namespace, code, out.getvalue(), err.getvalue()


class TestOneParse:
    """main() parses a command with the one parser its leading words name, and
    prints what the full parse of _PARSER leads it to print.  The plain
    spelling is read by the plan built with that parser, and argparse reads the rest."""

    @pytest.mark.parametrize("words", WALK_ARGV, ids=lambda words: " ".join(words) or "no-arguments")
    def test_same_as_the_full_parse(self, capsys, monkeypatch, golden_files, words):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [golden_files.get(arg, arg) for arg in words]
        try:
            full = vars(cli._PARSER.parse_args(argv))
        except SystemExit:
            full = None  # help or a usage error, whose bytes are compared below
        if full is not None:
            assert vars(cli._parse(argv)) == full
        capsys.readouterr()
        walked = invoke(capsys, argv)
        monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
        assert invoke(capsys, argv) == walked

    def test_the_cases_reach_every_parser(self):
        # the first word names each command, and the second each reproduce name
        heads = {" ".join(words[:1 + (words[:1] == ["reproduce"])]) for words in WALK_ARGV}
        assert set(runnable_parsers()) <= heads

    def test_no_arguments_means_those_of_the_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["tetrot", "reproduce", "norm-prune", "--tol-geom", "10"])
        given = invoke(capsys, None)
        assert given == invoke(capsys, sys.argv[1:])
        assert given[0] == 1

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_same_namespace_as_the_full_parse_on_fuzzed_lists(self, data):
        # either both refuse the list, with the same words, or both give the same namespace
        argv = data.draw(_argv())
        assert parse_outcome(cli._parse, argv) == parse_outcome(cli._PARSER.parse_args, argv), argv

    def test_the_workload_shapes_are_read_off_the_parser(self, monkeypatch, golden_files):
        def refuse(self, args=None, namespace=None):
            raise AssertionError(f"argparse's pass ran on {args}")

        argvs = [[golden_files.get(arg, arg) for arg in words] for words in WORKLOAD_ARGV + PLAIN_ARGV]
        expected = [parse_outcome(cli._PARSER.parse_args, argv) for argv in argvs]
        monkeypatch.setattr(cli._CommandParser, "parse_known_args", refuse)
        assert [parse_outcome(cli._parse, argv) for argv in argvs] == expected
        assert all(namespace is not None for namespace, *_ in expected)
        heads = {" ".join(words[:1 + (words[0] == "reproduce")]) for words in WORKLOAD_ARGV + PLAIN_ARGV}
        assert heads == set(runnable_parsers())

    @pytest.mark.parametrize("add, lists", [
        (lambda parser: parser.add_argument("word"), [[], ["w"], ["--seed", "1", "w"]]),
        (lambda parser: parser.add_argument("--pair", type=int, nargs=2), [[], ["--pair", "1"], ["--pair", "1", "2"]]),
        (lambda parser: parser.add_argument("--count", type=int, default="5"), [[], ["--count", "6"]]),
    ], ids=["positional", "nargs-2", "string-default"])
    def test_a_parser_the_plan_cannot_read_has_none(self, monkeypatch, add, lists):
        # a plan would read "--pair 1", which argparse refuses, and keep --count's default "5",
        # which argparse converts; a required positional is never given, so only _plan shows that one
        top = argparse.ArgumentParser(prog="throwaway")
        top._subcommands = top.add_subparsers(dest="command", required=True, parser_class=cli._CommandParser)
        parser = top._subcommands.add_parser("run")
        add(parser)
        cli._add_shared(parser, None, "--seed")
        assert parser._plan is None
        monkeypatch.setattr(cli, "_PARSER", top)
        for words in lists:
            argv = ["run", *words]
            assert parse_outcome(cli._parse, argv) == parse_outcome(top.parse_args, argv), argv

    @pytest.mark.parametrize("words", ARGPARSE_ARGV, ids=" ".join)
    def test_argparse_reads_every_other_spelling(self, monkeypatch, golden_files, words):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [golden_files.get(arg, arg) for arg in words]
        expected = parse_outcome(cli._PARSER.parse_args, argv)
        passes = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(self, args=None, namespace=None):
            passes.append(self.prog)
            return parse_known_args(self, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert parse_outcome(cli._parse, argv) == expected
        assert passes


def _in_threads(monkeypatch, calls: list, rounds: int) -> list:
    """Each round runs calls[i]() twice in a new thread i, all released at once
    under a tiny switch interval; the results, round by round.  Every call
    parses with the module's one parser, and no ArgumentParser may be built
    during the rounds."""
    counts = count_parser_building(monkeypatch.setattr)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            barrier = threading.Barrier(len(calls))
            outcome = [[] for _ in calls]

            def work(index):
                barrier.wait(timeout=60)
                for _ in range(2):
                    try:
                        outcome[index].append(calls[index]())
                    except (Exception, SystemExit) as exc:  # a usage error exits; keep it for the assertion
                        outcome[index].append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            results.append(outcome)
    finally:
        sys.setswitchinterval(interval)
    assert counts == {"built": 0, "added": 0}
    return results


class _UsageError(Exception):
    pass


class TestConcurrentFirstUse:
    """Threads that parse at once with the one shared parser each get the
    namespace or usage error of their own arguments, and build no parser."""

    THREADS = 8
    ROUNDS = 40

    def namespaces_in_threads(self, monkeypatch, golden_files, parse):
        # four threads run reproduce, each with another instance name
        argvs = [[golden_files.get(arg, arg) for arg in argv] for argv in COMMAND_ARGV]
        argvs[3] = ["verify-dims", "--trials", "3", "--seed", "5"]
        assert len(argvs) == self.THREADS
        expected = [vars(cli._build_parser().parse_args(argv)) for argv in argvs]
        calls = [lambda argv=argv: vars(parse(argv)) for argv in argvs]
        results = _in_threads(monkeypatch, calls, self.ROUNDS)
        assert results == [[[namespace] * 2 for namespace in expected]] * self.ROUNDS

    def test_each_thread_gets_its_own_namespace(self, capsys, monkeypatch, golden_files):
        self.namespaces_in_threads(monkeypatch, golden_files, cli._PARSER.parse_args)
        assert capsys.readouterr().err == ""

    def test_each_thread_gets_its_own_namespace_from_one_parse(self, capsys, monkeypatch, golden_files):
        # the parse main() runs: each thread walks to its own command's parser
        self.namespaces_in_threads(monkeypatch, golden_files, cli._parse)
        assert capsys.readouterr().err == ""

    def test_a_usage_error_names_the_arguments_of_its_own_call(self, monkeypatch):
        def refuse(self, message):
            raise _UsageError(message)

        monkeypatch.setattr(argparse.ArgumentParser, "error", refuse)
        names = ["four-cycle", "norm-prune", "planar", "uniqueness-sweep"]
        argvs = [["reproduce", "--tol-geom", f"1e-{i + 1}", names[i % 4]] for i in range(self.THREADS)]
        calls = [lambda argv=argv: cli._PARSER.parse_args(argv) for argv in argvs]
        expected = [f"flags follow the instance name, as in: tetrot reproduce {argv[3]} --tol-geom {argv[2]}"
                    for argv in argvs]
        results = _in_threads(monkeypatch, calls, self.ROUNDS)
        messages = [[[str(exc) for exc in excs] for excs in outcome] for outcome in results]
        assert messages == [[[message] * 2 for message in expected]] * self.ROUNDS
        assert all(type(exc) is _UsageError for outcome in results for excs in outcome for exc in excs)

    def test_words_one_parse_leaves_are_those_of_its_own_call(self, monkeypatch):
        def refuse(self, message):
            raise _UsageError(message)

        monkeypatch.setattr(argparse.ArgumentParser, "error", refuse)
        names = ["four-cycle", "norm-prune", "planar"]  # none takes --trials
        argvs = [["reproduce", names[i % 3], "--trials", str(i)] for i in range(self.THREADS)]
        calls = [lambda argv=argv: cli._parse(argv) for argv in argvs]
        expected = [f"unrecognized arguments: --trials {i}" for i in range(self.THREADS)]
        results = _in_threads(monkeypatch, calls, self.ROUNDS)
        messages = [[[str(exc) for exc in excs] for excs in outcome] for outcome in results]
        assert messages == [[[message] * 2 for message in expected]] * self.ROUNDS


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
        code, out, _ = invoke(capsys, [
            "sample", "--rotation", path, "--perm-class", perm_class.value,
            "--trials", "5", "--seed", str(self.SEED),
        ])
        report = json.loads(out)
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
        code, out, _ = invoke(capsys, [
            "sample", "--rotation", path, "--perm-class", CLASSIFICATION_CELLS[0].perm_class.value,
            "--trials", "5",
        ])
        report = json.loads(out)
        assert code == 0
        assert len(report["samples"]) == 5
        assert len(calls) == 1

    def test_a_trial_checks_no_number(self, capsys, monkeypatch, tmp_path):
        # the rotation file is checked once; a drawn tetrahedron is the library's own
        path, _ = self.rotation_file(tmp_path, 0)
        checked = []
        for module in (cli, geom, rotation):
            def counted(*args, _f=module.as_finite_array):
                checked.append(args[2])
                return _f(*args)

            monkeypatch.setattr(module, "as_finite_array", counted)
        for trials in ("1", "5"):
            checked.clear()
            code, out, _ = invoke(capsys, [
                "sample", "--rotation", path, "--perm-class", CLASSIFICATION_CELLS[0].perm_class.value,
                "--trials", trials,
            ])
            assert code == 0 and len(json.loads(out)["samples"]) == int(trials)
            assert checked == ["quaternion"]

    def test_same_bits_with_the_class_name_traced(self, capsys, monkeypatch, tmp_path):
        # bench/spans.py rebinds the name Tetrahedron in these modules to a plain
        # function that times its calls; the library's own tetrahedra must not need it
        index = 15
        path, q = self.rotation_file(tmp_path, index)
        perm_class = CLASSIFICATION_CELLS[index].perm_class
        runs = [
            ["sample", "--rotation", path, "--perm-class", perm_class.value, "--trials", "5", "--seed", "2"],
            ["reproduce", "uniqueness-sweep", "--trials", "20"],
            ["reproduce", "four-cycle"],
        ]

        def outputs():
            return [invoke(capsys, argv) for argv in runs], sample_tetrahedron(q, perm_class, 7).vertices.tobytes()

        expected = outputs()
        assert [code for code, _, _ in expected[0]] == [0, 0, 0]
        for module in (geom, configspace, cli):
            monkeypatch.setattr(module, "Tetrahedron", lambda *args, _f=module.Tetrahedron: _f(*args))
        assert outputs() == expected


# JSON trees for the report writer: strings and keys with quotes, backslashes,
# control and non-ASCII characters, integers of 20 digits and more, and floats
# at the edges of their range.
_ODD_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "a", "\u00e9", "\u2028", "\U0001f600"]))
_WRITER_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**19, 10**60)
    | st.integers(-(10**60), -(10**19))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308])
    | st.text()
    | _ODD_TEXT
)
_WRITER_NESTED = st.recursive(
    _WRITER_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text() | _ODD_TEXT, inner, max_size=4),
    max_leaves=30,
)


def _nest(value, levels: int):
    """value inside levels containers, lists and single-key dicts by turns."""
    for level in range(levels):
        value = [1.5, value] if level % 2 else {"k": value, "n": None}
    return value


# The trees above, and the same trees set deeper than the writer's table of
# indents reaches, so that both ways of forming an indent are written.
_WRITER_TREES = _WRITER_NESTED | st.builds(
    _nest, _WRITER_NESTED, st.integers(len(cli._INDENTS), len(cli._INDENTS) + 4)
)


# A value on its own, as the last item of a list, and inside a dict and two lists.
_WRAPS = [lambda v: v, lambda v: [1.0, v], lambda v: {"k": [[v]]}]
_WRAP_IDS = ["bare", "list", "dict"]


def dumps(value) -> str:
    """The standard library's bytes, which the report writer must match."""
    return json.dumps(value, indent=2, allow_nan=False)


class TestReportWriter:
    """cli._json writes what json.dumps(indent=2, allow_nan=False) writes, and
    fails where it fails, for every value a report can hold."""

    @settings(max_examples=100, deadline=None)
    @given(_WRITER_TREES)
    def test_same_bytes_as_the_standard_library(self, value):
        assert cli._json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        pytest.param([[], {}, [[[]]], {"a": [{}], "b": {}}], id="empty-containers"),
        pytest.param([-0.0, 5e-324, -5e-324, 1e300, 1.7976931348623157e308], id="float-edges"),
        pytest.param([10**20, -(10**25), 12345678901234567890123], id="long-ints"),
        pytest.param([True, False, None, 0, -1], id="constants"),
        pytest.param('quote " backslash \\ newline \n nul \x00 del \x7f \u00e9 \u6f22 \U0001f600 lone \ud800',
                     id="odd-string"),
        pytest.param({'k\u00e9"y\n\x01': {"": "\u2028"}}, id="odd-keys"),
    ])
    def test_edge_values(self, value):
        assert cli._json(value) == dumps(value)

    def test_deeper_than_the_indent_table(self):
        value = _nest([0.25, "s", [], {}], len(cli._INDENTS) + 3)
        assert cli._json(value) == dumps(value)
        assert cli._json(value, "\n") == dumps(value) + "\n"

    def test_a_report_is_one_write(self, monkeypatch):
        writes = []
        monkeypatch.setattr("sys.stdout", mock.Mock(write=writes.append))
        report = {"command": "solve", "candidates": [{"matrix": [[1.0, 0.0], [0.0, 1.0]], "ok": True}]}
        cli._emit(report)
        assert writes == [dumps(report) + "\n"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("wrap", _WRAPS, ids=_WRAP_IDS)
    def test_a_non_finite_float_raises_as_json_does(self, value, wrap):
        with pytest.raises(ValueError):
            dumps(wrap(value))
        with pytest.raises(ValueError):
            cli._json(wrap(value))

    @pytest.mark.parametrize("value", [np.float64("nan"), np.float64("-inf")], ids=["np-nan", "np--inf"])
    @pytest.mark.parametrize("wrap", _WRAPS, ids=_WRAP_IDS)
    def test_a_non_finite_float_subclass_raises_type_error(self, value, wrap):
        # json refuses the value; the writer refuses its type, as for a finite np.float64
        with pytest.raises(ValueError):
            dumps(wrap(value))
        with pytest.raises(TypeError):
            cli._json(wrap(value))

    @pytest.mark.parametrize("value", [object(), {1.0}, b"bytes", np.int64(1), np.bool_(True), np.array([1.0])],
                             ids=["object", "set", "bytes", "np-int64", "np-bool", "ndarray"])
    def test_a_type_json_refuses_raises_type_error(self, value):
        with pytest.raises(TypeError):
            dumps({"k": [value]})
        with pytest.raises(TypeError):
            cli._json({"k": [value]})

    @pytest.mark.parametrize("value", [
        (1.0, 2.0), {1: "int key"}, {None: "null key"},
        type("Text", (str,), {})("s"), type("Count", (int,), {})(1),
        type("Items", (list,), {})([1.0]), type("Fields", (dict,), {})(k=1.0), type("Real", (float,), {})(1.5),
        [np.float64(-0.0), np.float64(0.1), np.float64(1e-7)],
    ], ids=["tuple", "int-key", "none-key", "str-subclass", "int-subclass", "list-subclass", "dict-subclass",
            "float-subclass", "np-float64"])
    def test_tuples_and_keys_that_are_not_strings_raise_type_error(self, value):
        # json would write a list, a string key and each subclass, np.float64 among them, as its
        # base type; reports hold none
        with pytest.raises(TypeError):
            cli._json(value)

    def test_reports_hold_only_builtin_types(self, capsys, monkeypatch, golden_files):
        reports = []
        monkeypatch.setattr(cli, "_emit", reports.append)
        for argv in [*GOLDEN_ARGV.values(), *COMMAND_ARGV]:
            emitted = len(reports)
            code = invoke(capsys, [golden_files.get(arg, arg) for arg in argv])[0]
            for report in reports[emitted:]:  # none for a usage error or help
                # "command" comes first, then "name" for reproduce; an "ok" verdict is the exit code's
                head = {"command": argv[0], "name": argv[1]} if argv[0] == "reproduce" else {"command": argv[0]}
                assert list(report.items())[:len(head)] == list(head.items())
                assert code in (0, 1)
                if "ok" in report:
                    assert code == (0 if report["ok"] else 1)
        assert {report["command"] for report in reports} == {"solve", "analyze", "sample", "verify-dims", "reproduce"}
        # every report of every command is written in json.dumps's bytes
        assert [cli._json(report) for report in reports] == [dumps(report) for report in reports]
        assert any(report.get("swap_candidates") for report in reports)  # _candidate_json's quaternions
        pending = list(reports)
        while pending:
            value = pending.pop()
            assert type(value) in (dict, list, str, bool, int, float, type(None)), repr(value)
            if type(value) is dict:
                assert all(type(key) is str for key in value)
                pending.extend(value.values())
            elif type(value) is list:
                pending.extend(value)


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
    """Arguments for one of the five commands: mostly well formed, with fuzzed
    values; one in ten also carries an option the command does not take or a
    stray word."""
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
    taken = SHARED_OPTIONS.get(" ".join(argv[:2]) if command == "reproduce" else command, set())
    for option in sorted(taken - {"--trials"}):
        if draw(st.booleans()):
            argv += [option, draw(_VALUES)]
    if "--trials" in taken:
        argv += ["--trials", draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
    if draw(st.integers(0, 9)) == 0:
        foreign = sorted({"--tol-geom", "--tol-angle", "--seed"} - taken)
        foreign += ["--labeled"] * (command != "solve") + ["-x", "extra"]
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(foreign)))
    return argv


class TestFuzz:
    """Any JSON input and any argument list exit with 0, 1 or 2, never a
    traceback, and whatever reaches stdout is strict JSON."""

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
        if out.getvalue():
            strict_json(out.getvalue())
