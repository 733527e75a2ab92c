"""In-memory spans around every public tetrot call, and the per-layer metrics.

``instrument(tracer)`` temporarily replaces public functions in the tetrot
module namespaces with wrappers that record a span (name, start, end,
parent span, op id).  Because the package looks those names up in its own
module globals at call time, calls the package makes internally, such as
``unlabeled_solve`` calling ``labeled_solve`` once per relabeling, are
traced too, without any tracing code in the package.  Outside the ``with``
block the original functions are back in place, so untraced passes pay
nothing.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter
from time import perf_counter_ns

import benchenv  # noqa: F401  puts the checkout's src on sys.path
from tetrot import cli, configspace, geom, rotation, solver
from tetrot.geom import DEFAULT_TOLERANCES

# Public functions wrapped in spans, as (span name, [modules whose global
# name is replaced]).  Each call site looks the name up in exactly one of
# these modules, so no call is counted twice.
TRACED = (
    ("cli.main", (cli,)),
    ("solver.unlabeled_solve", (solver, cli)),
    ("solver.prune_permutations", (solver, cli)),
    ("solver.labeled_solve", (solver, cli)),
    ("solver.dedupe_rotations", (solver,)),
    ("solver.reconstruct_geometric", (solver,)),
    ("configspace.config_dimension", (configspace, cli)),
    ("configspace.build_config_matrix", (configspace, cli)),
    ("configspace.numeric_rank", (configspace, cli)),
    ("configspace.null_space_basis", (configspace,)),
    ("configspace.sample_tetrahedron", (configspace, cli)),
    ("rotation.classify_rotation", (rotation, configspace, cli)),
    ("rotation.apply", (rotation, cli)),
    ("geom.project", (geom, cli)),
    ("geom.Tetrahedron", (geom, configspace, cli)),
    ("geom.ProjectionQuad", (geom, solver, cli)),
)

# Spans the cli workload records around its cold-start probes, in ms.
CLI_SPANS = {
    "cli.interpreter": "cli.interpreter_ms",
    "cli.numpy_import": "cli.numpy_import_ms",
    "cli.import": "cli.import_ms",
}

COUNT_METRICS = (
    ("solver.prune_permutations.survivors_per_call", "count"),
    ("solver.labeled_solve.accept_ratio", "fraction"),
    ("solver.labeled_solve.planar_share", "fraction"),
    ("solver.dedupe_rotations.kept_ratio", "fraction"),
)

OVERHEAD_METRICS = (
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name, _ in TRACED:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.p50_us"] = "us"
        units[f"{name}.busy_us_per_op"] = "us"
    units.update(COUNT_METRICS)
    units.update({metric: "ms" for metric in CLI_SPANS.values()})
    units.update(OVERHEAD_METRICS)
    return units


class Tracer:
    """Spans and counters of one run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.counts: Counter[str] = Counter()

    def call(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans[span_id] = (name, start, end, parent, self.op_id)

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a top-level span measured elsewhere, such as in a child process."""
        self.spans.append((name, start, end, -1, self.op_id))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op_id,
                }) + "\n")


def _count(tracer: Tracer, name: str, args, kwargs, out) -> None:
    """Counters taken at the span boundary, after the span has closed."""
    counts = tracer.counts
    if name == "solver.prune_permutations":
        counts["prune.calls"] += 1
        counts["prune.survivors"] += len(out)
    elif name == "solver.labeled_solve":
        tetra = args[0] if args else kwargs["tetra"]
        tol = args[2] if len(args) > 2 else kwargs.get("tol", DEFAULT_TOLERANCES)
        counts["labeled.calls"] += 1
        counts["labeled.accepted"] += bool(out)
        counts["labeled.planar"] += not tetra.full_dimensional(tol.rank_rel)
    elif name == "solver.dedupe_rotations":
        counts["dedupe.in"] += len(args[0] if args else kwargs["candidates"])
        counts["dedupe.kept"] += len(out)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        _count(tracer, name, args, kwargs, out)
        return out

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced tetrot function through ``tracer`` inside the block."""
    saved = []
    try:
        for name, modules in TRACED:
            attr = name.split(".", 1)[1]
            for module in modules:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, _wrap(tracer, name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls per op, median span and self time per op for every traced name,
    the counters of the layer table and the cold-start split."""
    child_time = [0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations: dict[str, list[int]] = {}
    busy: Counter[str] = Counter()
    for span_id, (name, start, end, _, _) in enumerate(tracer.spans):
        durations.setdefault(name, []).append(end - start)
        busy[name] += end - start - child_time[span_id]

    ops = tracer.ops
    values: dict[str, float] = {}
    for name, _ in TRACED:
        spans = durations.get(name, [])
        values[f"{name}.calls_per_op"] = _ratio(len(spans), ops)
        values[f"{name}.p50_us"] = statistics.median(spans) / 1e3 if spans else 0.0
        values[f"{name}.busy_us_per_op"] = _ratio(busy[name] / 1e3, ops)
    c = tracer.counts
    values["solver.prune_permutations.survivors_per_call"] = _ratio(c["prune.survivors"], c["prune.calls"])
    values["solver.labeled_solve.accept_ratio"] = _ratio(c["labeled.accepted"], c["labeled.calls"])
    values["solver.labeled_solve.planar_share"] = _ratio(c["labeled.planar"], c["labeled.calls"])
    values["solver.dedupe_rotations.kept_ratio"] = _ratio(c["dedupe.kept"], c["dedupe.in"])
    for span, metric in CLI_SPANS.items():
        spans = durations.get(span, [])
        values[metric] = statistics.median(spans) / 1e6 if spans else 0.0
    return values
