"""Benchmarks: the static-analysis pass itself (not a paper artifact).

The analyzer runs in CI on every push, so its own runtime is part of the
development feedback loop.  This file tracks the cost of exactly what
``python -m repro.analysis src/`` runs — the platform/calibration tables
plus the per-file lint of the full ``src/`` tree — and enforces the hard
wall guard: the sweep must finish in **under 10 seconds** — an analyzer
slower than the test suite it gates would get turned off, which is worse
than any false negative.

The file and diagnostic counts ride along as ``extra_info`` so a
wall-time move is attributable: more files is growth, the same files
slower is a linter regression.
"""

import os

from repro.analysis.cli import run_analysis
from repro.analysis.diagnostics import DiagnosticSink
from repro.analysis.simlint import iter_python_files

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: The CI wall budget for one full analysis sweep.
WALL_BUDGET_SECONDS = 10.0


def _full_sweep():
    sink = DiagnosticSink()
    run_analysis([SRC], sink)
    return sink.sorted()


def test_full_analysis_sweep_under_wall_budget(benchmark):
    diagnostics = benchmark.pedantic(
        _full_sweep, rounds=3, iterations=1, warmup_rounds=1
    )
    median = benchmark.stats.stats.median
    assert median < WALL_BUDGET_SECONDS, (
        f"full analysis sweep took {median:.1f}s "
        f"(budget {WALL_BUDGET_SECONDS:.0f}s)"
    )
    benchmark.extra_info.update(
        {
            "files": len(iter_python_files([SRC])),
            "diagnostics": len(diagnostics),
        }
    )
