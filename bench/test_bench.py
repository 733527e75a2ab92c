"""Tests of the benchmark itself (not of tetrot).

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import benchenv
import compare
import reference
import run
import workloads

SPEC = json.loads(benchenv.BENCHMARK_JSON.read_text(encoding="utf-8"))


def _fingerprint(ops) -> list:
    """Every array and scalar input of every op, as plain Python values."""
    out = []
    for op in ops:
        fields = []
        for value in vars(op).values():
            if hasattr(value, "vertices"):
                value = value.vertices
            elif hasattr(value, "points"):
                value = value.points
            elif hasattr(value, "as_array"):
                value = value.as_array()
            elif hasattr(value, "expected_dim"):
                value = value.label()
            elif hasattr(value, "images"):
                value = value.images
            fields.append(np.asarray(value).tolist() if isinstance(value, np.ndarray) else value)
        out.append((type(op).__name__, fields))
    return out


@pytest.mark.parametrize("workload", ["generic-shadows", "ambiguous-shadows", "dimension-sweep"])
def test_generator_is_deterministic_per_seed(workload):
    first = _fingerprint(workloads.generate(workload, 5, n=40))
    assert first == _fingerprint(workloads.generate(workload, 5, n=40))
    assert first != _fingerprint(workloads.generate(workload, 6, n=40))
    assert first[:10] == _fingerprint(workloads.generate(workload, 5, n=10))


def test_cli_inputs_are_deterministic_per_seed(tmp_path):
    def files(seed, sub, n=15):
        ops = workloads.cli_commands(seed, tmp_path / sub, n)
        return [op.argv[0] for op in ops], sorted(p.read_text() for p in (tmp_path / sub).iterdir())

    assert files(5, "a") == files(5, "b")
    assert files(5, "a")[1] != files(6, "c")[1]
    commands, contents = files(5, "d", n=5)
    assert commands == files(5, "a")[0][:5] and set(contents) <= set(files(5, "a")[1])


def _first(workload, kind):
    return next(op for op in workloads.generate(workload, 3, n=60) if isinstance(op, kind))


def test_unique_truth_checker_flags_wrong_candidate_lists():
    op = _first("generic-shadows", workloads.UnlabeledOp)
    good = op.run()
    assert op.check(good) == "ok"
    assert op.check([]) == "miss"
    assert op.check(good + good) == "wrong"
    wrong_matrix = [type(good[0])(good[0].sigma, good[0].rotation, -good[0].matrix, 0.0, False)]
    assert op.check(wrong_matrix) == "wrong"
    relabeled = next(s for s in workloads.CANONICAL_PERMUTATION.values() if s != good[0].sigma)
    assert op.check([type(good[0])(relabeled, good[0].rotation, good[0].matrix, 0.0, False)]) == "wrong"


def test_labeled_cross_check_needs_both_routes():
    op = _first("generic-shadows", workloads.LabeledCheckOp)
    linear, geometric = op.run()
    assert op.check((linear, geometric)) == "ok"
    assert op.check((linear, [])) == "miss"
    assert op.check((linear, geometric + linear)) == "wrong"


def test_contains_checker_flags_missing_truth_and_bad_residual():
    op = _first("ambiguous-shadows", workloads.AmbiguousOp)
    good = op.run()
    assert op.check(good) == "ok"
    assert op.check([]) == "miss"
    others = [c for c in good if c.sigma != op.sigma]
    assert op.check(others) == ("wrong" if others else "miss")
    cand = good[0]
    far = type(cand)(cand.sigma, cand.rotation, cand.matrix, 1e-3, cand.planar_ambiguous)
    assert op.check(good + [far]) == "wrong"


def test_dimension_and_residual_checkers_flag_wrong_values():
    op = _first("dimension-sweep", workloads.DimensionOp)
    assert op.check(op.run()) == "ok"
    assert op.check(op.cell.expected_dim + 1) == "wrong"
    sample = _first("dimension-sweep", workloads.SampleOp)
    assert sample.check(sample.run()) == "ok"
    assert sample.check(1e-6) == "wrong"


def test_cli_checker_flags_exit_code_and_report(tmp_path):
    for op in workloads.cli_commands(2, tmp_path, 5):
        code, stdout = op.run()
        assert op.check((code, stdout)) == "ok", op.argv
        assert op.check((1, stdout)) == "wrong"
        assert op.check((0, "not json")) == "wrong"
        assert op.check((0, json.dumps({"command": "other"}))) == "wrong"


def test_raising_op_is_a_failed_op_not_an_abort():
    def broken():
        raise ZeroDivisionError

    assert run.run_op(broken, lambda result: "ok")[1] == "raised"
    assert run.run_op(lambda: None, lambda result: result.missing)[1] == "wrong"


def test_latencies_are_per_op_medians_at_quiet_speed():
    tally = run.Tally()
    for reference_ns in (reference.QUIET_NS, 2 * reference.QUIET_NS, reference.QUIET_NS):
        tally.new_pass()
        tally.record([1000, 4000], reference_ns)
    assert tally.latencies() == [1000, 4000]
    tally.new_pass()
    tally.record([1200, 4200], 2 * reference.QUIET_NS)
    assert tally.latencies() == [800, 3050]
    assert tally.ops_per_s(wall=True) == pytest.approx(2 / 5000e-9)


def test_a_miss_lowers_ok_frac_without_failing_the_run():
    result, detail = run.measure("generic-shadows", 1, 0.05, trace=False)
    assert detail["outcomes"]["miss"] > 0 and detail["outcomes"]["wrong"] == 0
    assert result["correct"] and result["failed"] == 0
    ok = result["metrics"]["ok_frac"]["value"]
    assert ok == detail["outcomes"]["ok"] / result["attempted"] < 1


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_emitted_metrics_are_declared(trace, section):
    result, _ = run.measure("dimension-sweep", 1, 0.05, trace)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(section)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_cli_trace_has_the_cold_start_split_and_main_spans():
    result, _ = run.measure("cli", 1, 0.05, trace=True)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("cli.interpreter_ms", "cli.numpy_import_ms", "cli.import_ms", "cli.main.p50_us"):
        assert values[name] > 0
    assert values["cli.main.calls_per_op"] == 1
    assert values["solver.unlabeled_solve.calls_per_op"] > 0
    assert result["correct"] and result["failed"] == 0


def test_every_workload_has_a_recorded_why():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200


def test_setup_metric_is_declared_with_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_without_source_tree_the_run_fails_without_a_result(tmp_path):
    shutil.copy(benchenv.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(benchenv.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "generic-shadows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_verdicts():
    base = [(s, 100.0 + s) for s in range(10)]
    assert compare.verdict(base, [(s, 150.0 + s) for s in range(10)], "higher", 0.1) == "improved"
    assert compare.verdict(base, [(s, 80.0 + s) for s in range(10)], "higher", 0.1) == "worse"
    assert compare.verdict(base, [(s, 100.0 + s) for s in range(10)], "higher", 0.1) == "unchanged"
    wide = [(s, 50.0 + 20 * s) for s in range(10)]
    assert compare.verdict(wide, [(s, 45.0 + 20 * s) for s in range(10)], "higher", 0.1) == "unresolved"
    assert compare.verdict(base, [(s, 50.0 + s) for s in range(10)], "lower", None) == "improved"
