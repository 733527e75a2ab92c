import json
import math

import numpy as np
import pytest

from tetrot.cli import main, parse_projection, parse_rotation, parse_tetrahedron
from tetrot.instances import four_cycle_instance, planar_instance


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
