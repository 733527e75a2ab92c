"""Set-up probe: a fresh interpreter that imports tetrot and runs a workload's first op.

Prints one JSON line: the CLOCK_MONOTONIC time at which the imports were
done and the duration of the first op.  Input generation happens between
the two and is excluded from set-up time.  The op's result is checked by
the timed passes of the run, not here.

    python3 bench/probe.py --workload generic-shadows --seed 1
"""

from __future__ import annotations

import argparse
import json
import time

import benchenv  # noqa: F401  pins BLAS threads before numpy loads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    import workloads  # imports numpy and tetrot from the checkout

    imported_ns = time.monotonic_ns()
    op = workloads.generate(args.workload, args.seed, n=1)[0]
    start = time.perf_counter_ns()
    try:
        op.run()
    except Exception:  # a failing op still has a set-up time; the run counts the failure
        pass
    op_ns = time.perf_counter_ns() - start
    print(json.dumps({"imported_ns": imported_ns, "op_ns": op_ns}))


if __name__ == "__main__":
    main()
