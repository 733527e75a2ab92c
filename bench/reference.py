"""Reference kernel: a fixed yardstick for how fast this core runs right now.

The benchmark shares a few cores of a host with other tenants.  Their load
slows every instruction this process runs by up to 2x, and it can do so for
minutes on end, longer than a whole run, so no choice among repeated timings
of an op removes it.  The reference kernel is a fixed mix of the work tetrot
ops are made of (small-matrix numpy linear algebra, array assembly, JSON and
plain Python) that involves no tetrot code.  Timed next to the ops, it gives
the slowdown under which they ran; ``at_quiet_speed`` rescales a measured
duration to the reference kernel's speed on an uncontended core.

Set-up (a fresh interpreter importing tetrot) is mostly process start,
file reads and module loading, which contention slows less than it slows
the kernel.  Its yardstick is the start of a bare interpreter
(``bare_start_ns``), and ``setup_at_quiet_speed`` rescales by that.

Measured on a 2-core Xeon while the host load varied:

- the time of a pass over a pool varied by 1.5-1.9x, its ratio to the
  reference kernel timed alongside by about 7% (generic-shadows,
  ambiguous-shadows, dimension-sweep) and 13% (cli, whose ops are mostly
  plain Python);
- over 300 set-up probes, the median set-up time was 1.34x higher in the
  more contended half than in the less contended half, its ratio to the
  bare interpreter start timed alongside 1.005x.
"""

from __future__ import annotations

import json
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

# Uncontended times on the 2-core Xeon the benchmark was tuned on: the
# lowest ``Reference.time()`` and ``bare_start_ns()`` seen over minutes.
QUIET_NS = 410_000
QUIET_START_NS = 36_500_000


class Reference:
    """Times the reference kernel; the minimum of three repetitions, so a
    single interrupt does not count as contention."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.m3 = rng.standard_normal((3, 3))
        self.m43 = rng.standard_normal((4, 3))
        self.b = rng.standard_normal((4, 2))
        self.doc = {"points": self.b.tolist(), "name": "reference"}

    def _once(self) -> int:
        start = perf_counter_ns()
        for _ in range(8):
            np.linalg.svd(self.m3)
            np.linalg.lstsq(self.m43, self.b, rcond=None)
            float((self.m43 @ self.m3).sum())
            np.block([[self.m3, self.m3], [self.m3, self.m3]])
            json.loads(json.dumps(self.doc))
            sorted(range(50), key=lambda x: -x)
        return perf_counter_ns() - start

    def time(self) -> int:
        return min(self._once() for _ in range(3))


def at_quiet_speed(elapsed_ns: float, reference_ns: float) -> float:
    """``elapsed_ns`` measured while the reference kernel took ``reference_ns``,
    rescaled to the reference kernel's uncontended speed."""
    return elapsed_ns * QUIET_NS / reference_ns


def bare_start_ns(env: dict[str, str]) -> int:
    """Wall time of ``python -c pass``: interpreter start and exit.  The
    output pipes make ``run`` wait on them, not poll for the exit with
    growing sleeps."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True, timeout=60)
    return perf_counter_ns() - start


def setup_at_quiet_speed(elapsed_ns: float, bare_start: float) -> float:
    """A set-up time measured next to a bare interpreter start of
    ``bare_start`` ns, rescaled to the uncontended start."""
    return elapsed_ns * QUIET_START_NS / bare_start
