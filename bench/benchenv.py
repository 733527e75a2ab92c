"""Process set-up shared by every benchmark entry point.

Import this module before numpy and tetrot.  It pins the BLAS pools to one
thread, locates the checkout root (the parent of this directory), and puts
the checkout's ``src`` first on ``sys.path`` so the benchmark always
measures the source tree next to it.  ``require_checkout_source`` refuses to
go on when that tree is missing rather than fall back to some other
installed copy of the package.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
if sys.path[:1] != [str(SRC)]:
    sys.path.insert(0, str(SRC))


class MissingSourceError(RuntimeError):
    """The checkout holds no tetrot source tree to measure."""


def require_checkout_source() -> None:
    """Raise unless ``import tetrot`` resolves to ``<root>/src/tetrot``."""
    if not (SRC / "tetrot" / "__init__.py").is_file():
        raise MissingSourceError(f"no tetrot source tree under {SRC}")
    import tetrot

    if Path(tetrot.__file__).resolve().parent != SRC / "tetrot":
        raise MissingSourceError(f"tetrot was imported from {tetrot.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for subprocesses: same pinned BLAS pools, checkout source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tetrot").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment_stamp() -> dict:
    """Provenance recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }
