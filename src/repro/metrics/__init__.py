"""Results, analysis, and reporting.

* :mod:`repro.metrics.results` — per-run records (makespan, split
  writer/reader bars, phase breakdowns).
* :mod:`repro.metrics.analysis` — cross-configuration analysis
  (normalization to the best configuration, slowdowns, winners).
* :mod:`repro.metrics.report` — ASCII tables and bar charts used by the
  experiment harness to print paper-style figures.
"""

from repro.metrics.analysis import (
    ConfigComparison,
    best_config,
    compare_configs,
    normalized_runtimes,
    slowdown_of,
)
from repro.metrics.report import ascii_bar_chart, format_table
from repro.metrics.timeline import render_timeline
from repro.metrics.results import PhaseBreakdown, RunResult

__all__ = [
    "ConfigComparison",
    "PhaseBreakdown",
    "RunResult",
    "ascii_bar_chart",
    "best_config",
    "compare_configs",
    "format_table",
    "normalized_runtimes",
    "render_timeline",
    "slowdown_of",
]
