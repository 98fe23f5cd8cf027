"""Figure 6: GTC + Read-Only analytics.

Paper findings: at 8 threads the compute-heavy simulation hides I/O and
parallel execution wins (P-LocR, §VI-D); at 16 threads serial local-read
wins, 6-7 % faster than parallel (S-LocR, §VI-B); at 24 threads remote
writes begin to dominate and S-LocW wins, ~6 % over S-LocR (§VI-A).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.experiments.family_figure import run_family_figure
from repro.metrics.analysis import gap_between

EXPERIMENT_ID = "fig06"
TITLE = "GTC + Read only: Runtime"


def _claims(reports: Dict[int, TuningReport]) -> List[Claim]:
    claims: List[Claim] = []
    results_16 = reports[16].results
    best_parallel = min(results_16["P-LocW"].makespan, results_16["P-LocR"].makespan)
    measured = best_parallel / results_16["S-LocR"].makespan - 1.0
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.serial_gain.16",
            "S-LocR 6-7 % faster than parallel at 16 threads",
            paper_gap=0.065,
            measured_gap=measured,
            rel_tolerance=1.5,
        )
    )
    measured = gap_between(reports[24].results, "S-LocW", "S-LocR")
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.locw_gain.24",
            "S-LocW ~6 % faster than S-LocR at 24 threads",
            paper_gap=0.06,
            measured_gap=measured,
            rel_tolerance=1.5,
        )
    )
    measured = gap_between(reports[8].results, "P-LocR", "S-LocR")
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.parallel_gain.8",
            "parallel 3-9 % faster than serial at 8 threads",
            paper_gap=0.05,
            measured_gap=measured,
            rel_tolerance=1.5,
            abs_tolerance=0.04,
        )
    )
    return claims


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    return run_family_figure(
        tuner,
        EXPERIMENT_ID,
        TITLE,
        __doc__.strip(),
        family="gtc+readonly",
        panels=(8, 16, 24),
        extra_claims=_claims,
    )
