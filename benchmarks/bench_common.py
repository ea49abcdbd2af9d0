"""Shared helpers for the benchmark harness (plain module, not a conftest).

Bench modules import these with ``from bench_common import ...`` rather
than from ``conftest``: two ``conftest.py`` files (``tests/`` and
``benchmarks/``) are both imported under the top-level name ``conftest``,
so importing helpers from it resolves to whichever directory pytest
collected first.  Keeping ``benchmarks/conftest.py`` fixture-only makes
``pytest tests/`` and ``pytest benchmarks/`` collect cleanly in any order.

Environment setup is *not* duplicated here: the repo-root ``conftest.py``
is the single place that puts ``src/`` on ``sys.path``, so
``pytest benchmarks/`` works from a clean checkout with no ``PYTHONPATH``.

Conventions:

* every figure/table bench regenerates the paper artefact, writes the full
  text rendering to ``results/<name>.txt`` and prints a short summary, so a
  plain ``pytest benchmarks/ --benchmark-only`` run leaves the regenerated
  evaluation on disk;
* the expensive sweeps run once per bench (``benchmark.pedantic`` with a
  single round) — we are benchmarking the *algorithms*, and the interesting
  output is the regenerated figure, not nanosecond-level timing stability;
* set ``REPRO_BENCH_FULL=1`` for the paper-dense task grid (n = 1, 5, ...,
  50); the default grid (n = 1, 10, ..., 50) preserves every shape at a
  fraction of the cost.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def full_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def bench_task_grid() -> list[int]:
    step = 5 if full_mode() else 10
    return sorted(set([1] + list(range(step, 51, step))))


def save_result(results_dir: Path, name: str, text: str) -> Path:
    path = results_dir / name
    path.write_text(text + "\n")
    return path


def spread(samples: list[float]) -> dict[str, float]:
    """Median, min and interquartile range of repeated timings (seconds)."""
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "iqr_s": q3 - q1,
    }


def bench_meta(repeats: int) -> dict[str, object]:
    """Provenance of a trajectory document: what it was measured on (the
    commit, suffixed ``-dirty`` when the checkout had uncommitted edits)."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True,
            text=True,
            check=True,
            cwd=RESULTS_DIR.parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
    }
