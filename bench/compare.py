"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records as ``bench/run.py`` appends them to
``.bench_out/results.jsonl``.  A row gives both medians with their quartiles,
the ratio change/base, and a verdict:

``improved``    the change reads better in at least nine tenths of the
                pairs and the medians differ by more than the base's
                quartile distance;
``worse``       an end-to-end metric's median is worse than the base median
                by more than its bound in BENCHMARK.json, or a per-layer
                metric loses nine tenths of the pairs by more than the
                base's quartile distance;
``unresolved``  the base's own spread is wider than the bound (for a
                per-layer metric: the medians differ by more than the base's
                quartile distance without a clear winner), unless every
                change run reads better than every base run;
``unchanged``   otherwise.

Pairs match runs by seed where both sets have it, else by order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, metric): [(seed, value), ...]} from a results file."""
    runs: dict[tuple[str, str], list[tuple[int, float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, entry in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], metric), []).append((record["seed"], entry["value"]))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(base: list[tuple[int, float]], change: list[tuple[int, float]]) -> list[tuple[float, float]]:
    base_by_seed, change_by_seed = dict(base), dict(change)
    common = sorted(set(base_by_seed) & set(change_by_seed))
    if common:
        return [(base_by_seed[s], change_by_seed[s]) for s in common]
    return list(zip((v for _, v in base), (v for _, v in change)))


def verdict(base: list[tuple[int, float]], change: list[tuple[int, float]], better: str, bound) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b = [v for _, v in base]
    c = [v for _, v in change]
    bq1, bmed, bq3 = quartiles(b)
    _, cmed, _ = quartiles(c)
    gain = sign * (cmed - bmed)  # > 0 when the change reads better
    iqr = bq3 - bq1
    matched = pairs(base, change)
    wins = sum(sign * (y - x) > 0 for x, y in matched)
    losses = sum(sign * (y - x) < 0 for x, y in matched)
    all_better = min(sign * v for v in c) > max(sign * v for v in b)
    if bound is not None and bmed and -gain > bound * abs(bmed):
        return "worse"
    if wins >= 0.9 * len(matched) and gain > iqr:
        return "improved"
    if bound is None and losses >= 0.9 * len(matched) and -gain > iqr:
        return "worse"
    if all_better:
        return "unchanged"
    if bound is not None:
        return "unresolved" if bmed and iqr / abs(bmed) > bound else "unchanged"
    return "unresolved" if abs(gain) > iqr else "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"]}
    declared.update({m["name"]: {**m, "bound": None} for m in spec["per_layer"]})
    base, change = load(args.base), load(args.change)

    def cell(values: list[float]) -> str:
        q1, median, q3 = quartiles(values)
        return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'workload':18s} {'metric':50s} {'unit':8s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'ratio':>7s}  verdict")
    for workload, metric in sorted(set(base) & set(change)):
        if metric not in declared:
            continue
        m = declared[metric]
        b, c = base[workload, metric], change[workload, metric]
        bmed, cmed = statistics.median(v for _, v in b), statistics.median(v for _, v in c)
        ratio = f"{cmed / bmed:.3f}" if bmed else "n/a"
        print(f"{workload:18s} {metric:50s} {m['unit']:8s} {cell([v for _, v in b]):>32s} "
              f"{cell([v for _, v in c]):>32s} {ratio:>7s}  {verdict(b, c, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
