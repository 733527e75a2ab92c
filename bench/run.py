"""tetrot benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload generic-shadows --seed 1 --seconds 25 --trace 0

Workloads (their reasons are recorded in BENCHMARK.json):

  generic-shadows    unlabeled_solve on noisy shadows of random tetrahedra,
                     plus a labeled_solve / reconstruct_geometric cross-check
  ambiguous-shadows  unlabeled_solve on null-space samples of every cell
  dimension-sweep    config_dimension and sample_tetrahedron over every cell
  cli                tetrot.cli.main over five commands; its setup_s is the
                     cold start of the command line, and its traced run
                     splits that into interpreter, numpy and tetrot imports

The inputs are generated from ``--seed`` before any timing.  The run then
executes whole passes over the op pool, one caller waiting for each op (a
closed loop), until ``--seconds`` have elapsed, and checks every result.
Whole passes make ``ok_frac`` repeat exactly for a seed.

Every timing is reported at quiet speed: rescaled by a yardstick timed
alongside it (see ``reference.py``), so that the load other tenants put on
a shared host does not show as a change of the program.  Throughput
and the latency percentiles use each op's median over the passes (see
``Tally``); ``setup_s`` is the median of several fresh interpreters, each
timed from its start until tetrot is imported and the first op is done.
The per-layer metrics of the traced run are wall-clock times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the spans
of the traced passes, with the tracing overhead as the gap between the two
throughputs.  Spans are written to ``.bench_out/spans-<workload>.jsonl``.

Output: a provenance line, then as the last line
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts the
ops that returned a wrong answer or raised, and ``correct`` is false when
there is any.  An op that returned no answer at all where one exists (a
miss: the known noise dead zone of generic-shadows) is not ok and lowers
``ok_frac``, the share of ops that returned exactly the expected answer,
but it does not fail: the package declined, it did not err.  Each run is
also appended to ``.bench_out/results.jsonl``, the input of
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from time import perf_counter_ns

import benchenv
import reference

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "ok_frac": "fraction",
    "setup_s": "s",
}

SETUP_PROBES = 7      # fresh interpreters per run, one after each of the first passes
REFERENCE_EVERY_NS = 50_000_000  # op time between two timings of the reference kernel
WARMUP_OPS = 50       # in-process ops run untimed before the first pass
SPLIT_PROBES = 5      # cold-start split samples per kind on the cli workload

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter_ns()\n"
    "import numpy\n"
    "t1 = time.perf_counter_ns()\n"
    "import tetrot.cli\n"
    "t2 = time.perf_counter_ns()\n"
    "print(t0, t1, t2)\n"
)


class Tally:
    """Outcomes of the timed ops, and their latencies grouped by pass.

    Other tenants of a shared host slow everything this process runs by up
    to 2x, for seconds to minutes at a time.  Each latency is therefore
    recorded at quiet speed (``reference.at_quiet_speed``), next to the
    reference kernel timed around it, and the timing metrics use each op's
    median over the passes, which every pass runs in the same order.  The
    wall-clock latencies are kept too, for the provenance record.
    """

    def __init__(self) -> None:
        self.outcomes: dict[str, int] = {"ok": 0, "miss": 0, "wrong": 0, "raised": 0}
        self.passes: list[list[float]] = []
        self.wall: list[list[int]] = []

    def new_pass(self) -> None:
        self.passes.append([])
        self.wall.append([])

    def record(self, elapsed_ns: list[int], reference_ns: float) -> None:
        self.passes[-1].extend(reference.at_quiet_speed(ns, reference_ns) for ns in elapsed_ns)
        self.wall[-1].extend(elapsed_ns)

    def latencies(self) -> list[float]:
        return [statistics.median(per_op) for per_op in zip(*self.passes)]

    def ops_per_s(self, wall: bool = False) -> float:
        per_op = [statistics.median(p) for p in zip(*self.wall)] if wall else self.latencies()
        return len(per_op) / (sum(per_op) / 1e9)


def run_op(run, check, tracer=None, span: str = "op") -> tuple[int, str]:
    """Time one call, then check its result outside the timed region."""
    start = perf_counter_ns()
    try:
        result = run() if tracer is None else tracer.call(span, run, (), {})
    except Exception:  # an op that raises is a failed op, never an aborted run
        return perf_counter_ns() - start, "raised"
    elapsed = perf_counter_ns() - start
    try:
        return elapsed, check(result)
    except Exception:
        return elapsed, "wrong"


def run_pass(ops, tally: Tally, ref: reference.Reference, tracer=None) -> None:
    """One pass over the pool.  The reference kernel is timed before the
    first op and after every ``REFERENCE_EVERY_NS`` of ops; the ops in
    between are rescaled by the mean of the two reference times."""
    tally.new_pass()
    before = ref.time()
    pending: list[int] = []
    since = perf_counter_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = tracer.ops
            tracer.ops += 1
        elapsed, outcome = run_op(op.run, op.check, tracer)
        tally.outcomes[outcome] += 1
        pending.append(elapsed)
        if i == len(ops) - 1 or perf_counter_ns() - since >= REFERENCE_EVERY_NS:
            after = ref.time()
            tally.record(pending, (before + after) / 2)
            before, pending, since = after, [], perf_counter_ns()


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter's start to the workload's first op
    done, at quiet speed: a bare interpreter is started before and after."""
    env = benchenv.child_env()
    before = reference.bare_start_ns(env)
    spawned = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(benchenv.ROOT / "bench" / "probe.py"), "--workload", workload, "--seed", str(seed)],
        cwd=benchenv.ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    elapsed_ns = probe["imported_ns"] - spawned + probe["op_ns"]
    bare = (before + reference.bare_start_ns(env)) / 2
    return reference.setup_at_quiet_speed(elapsed_ns, bare) / 1e9


def cold_start_split(tracer) -> None:
    """Spans of a bare interpreter, ``import numpy`` and ``import tetrot.cli``,
    each in a fresh interpreter, so the cold start of the CLI splits into
    start-up, import and command (``cli.main``) time."""
    env = benchenv.child_env()
    for _ in range(SPLIT_PROBES):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True, timeout=60)
        tracer.add_span("cli.interpreter", start, perf_counter_ns())
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=benchenv.ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        t0, t1, t2 = (int(x) for x in done.stdout.split())
        tracer.add_span("cli.numpy_import", t0, t1)
        tracer.add_span("cli.import", t1, t2)


def measure(workload: str, seed: int, seconds: float, trace: bool):
    import spans
    import workloads

    ops = workloads.generate(workload, seed)
    for op in ops[:WARMUP_OPS]:
        run_op(op.run, op.check)
    ref = reference.Reference()
    ref.time()  # warm-up

    plain, traced = Tally(), Tally()
    tracer = spans.Tracer()
    setup: list[float] = []  # spread over the run
    probes = 0 if trace else SETUP_PROBES
    deadline = perf_counter_ns() + int(seconds * 1e9)
    passes = 0
    while True:
        if trace and passes % 2 == 1:
            with spans.instrument(tracer):
                run_pass(ops, traced, ref, tracer)
        else:
            run_pass(ops, plain, ref)
        passes += 1
        if len(setup) < probes:
            setup.append(setup_sample(workload, seed))
        if perf_counter_ns() >= deadline and (passes >= 2 or not trace):
            break
    while len(setup) < probes:
        setup.append(setup_sample(workload, seed))

    if trace and workload == "cli":
        cold_start_split(tracer)

    outcomes = {k: plain.outcomes[k] + traced.outcomes[k] for k in plain.outcomes}
    attempted = sum(outcomes.values())
    failed = outcomes["wrong"] + outcomes["raised"]
    if trace:
        untraced_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
        values = spans.layer_metrics(tracer)
        values["trace.untraced_ops_per_s"] = untraced_rate
        values["trace.traced_ops_per_s"] = traced_rate
        values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
        units = spans.layer_metric_units()
        tracer.write(benchenv.OUT / f"spans-{workload}.jsonl")
    else:
        deciles = statistics.quantiles(plain.latencies(), n=10)
        values = {
            "ops_per_s": plain.ops_per_s(),
            "op_p50_us": deciles[4] / 1e3,
            "op_p90_us": deciles[8] / 1e3,
            "ok_frac": outcomes["ok"] / attempted,
            "setup_s": statistics.median(setup),
        }
        units = E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {"passes": passes, "pool": len(ops), "outcomes": outcomes, "wall_ops_per_s": plain.ops_per_s(wall=True)}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        benchenv.require_checkout_source()
    except benchenv.MissingSourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **detail, "env": benchenv.environment_stamp(),
    }
    benchenv.OUT.mkdir(parents=True, exist_ok=True)
    with open(benchenv.OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**stamp, "result": result}) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:18s} {name:52s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
