"""Figure 5: microbenchmark with 2 KB objects.

Paper findings: the 2K workflow never saturates write bandwidth (per-object
software overhead dominates), so reads should be prioritized — local-read
placements win.  At low/medium concurrency parallel execution is 10-14 %
faster than serial (P-LocR, §VI-D); at 24 threads contention for the Optane
internal cache makes serial 11.5 % faster (S-LocR, §VI-B).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.experiments.family_figure import run_family_figure
from repro.metrics.analysis import gap_between

EXPERIMENT_ID = "fig05"
TITLE = "Benchmark Writer + Reader with 2K objects: Runtime"


def _claims(reports: Dict[int, TuningReport]) -> List[Claim]:
    claims: List[Claim] = []
    for ranks, paper_gap in ((8, 0.12), (16, 0.12)):
        measured = gap_between(reports[ranks].results, "P-LocR", "S-LocR")
        claims.append(
            gap_claim(
                f"{EXPERIMENT_ID}.parallel_gain.{ranks}",
                f"P-LocR 10-14 % faster than S-LocR at {ranks} threads",
                paper_gap=paper_gap,
                measured_gap=measured,
                rel_tolerance=1.2,
            )
        )
    # At 24 threads serial wins over the best parallel configuration.
    results_24 = reports[24].results
    best_parallel = min(
        results_24["P-LocW"].makespan, results_24["P-LocR"].makespan
    )
    measured = best_parallel / results_24["S-LocR"].makespan - 1.0
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.serial_gain.24",
            "S-LocR 11.5 % faster than parallel at 24 threads",
            paper_gap=0.115,
            measured_gap=measured,
            rel_tolerance=6.0,
        )
    )
    return claims


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    return run_family_figure(
        tuner,
        EXPERIMENT_ID,
        TITLE,
        __doc__.strip(),
        family="micro-2k",
        panels=(8, 16, 24),
        extra_claims=_claims,
    )
