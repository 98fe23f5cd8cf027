"""Figure 4: microbenchmark with 64 MB objects (80/160/240 GB totals).

Paper findings (§VI-A): with moderate (16) and large (24) thread counts,
serial execution with local writes (S-LocW) is the best configuration —
up to 2.5x better than other scenarios.  The workflow is bandwidth bound
(no compute to hide I/O), so remote writes and co-scheduled reads both hurt.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.experiments.family_figure import run_family_figure

EXPERIMENT_ID = "fig04"
TITLE = "Benchmark Writer + Reader with 64MB objects: Runtime"


def _claims(reports: Dict[int, TuningReport]) -> List[Claim]:
    claims: List[Claim] = []
    # "up to 2.5x better than other scenarios" at 16/24 threads: the worst
    # alternative should be >= ~1.5x the S-LocW runtime somewhere.
    worst_ratio = max(
        max(reports[ranks].comparison.normalized.values()) for ranks in (16, 24)
    )
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.worst_case",
            "S-LocW up to ~2.5x better than other scenarios at 16/24 threads",
            paper_gap=1.5,  # 2.5x = +150 %
            measured_gap=worst_ratio - 1.0,
            rel_tolerance=3.0,
            abs_tolerance=0.6,
        )
    )
    return claims


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    return run_family_figure(
        tuner,
        EXPERIMENT_ID,
        TITLE,
        __doc__.strip(),
        family="micro-64mb",
        panels=(8, 16, 24),
        extra_claims=_claims,
    )
