"""Figure 9: miniAMR + MatrixMult analytics.

Paper findings: the analytics' interleaved compute lets the scheduler
prioritize the I/O-heavy simulation.  At 8 threads P-LocW is 7 % better
than the next best alternative P-LocR (§VI-C); at 16/24 threads serial
local-write wins (Table II row 4).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.experiments.family_figure import run_family_figure
from repro.metrics.analysis import gap_between

EXPERIMENT_ID = "fig09"
TITLE = "miniAMR + matrixmult: Runtime"


def _claims(reports: Dict[int, TuningReport]) -> List[Claim]:
    measured = gap_between(reports[8].results, "P-LocW", "P-LocR")
    return [
        gap_claim(
            f"{EXPERIMENT_ID}.locw_gain.8",
            "P-LocW 7 % better than the next best alternative P-LocR at 8 threads",
            paper_gap=0.07,
            measured_gap=measured,
            rel_tolerance=1.2,
        )
    ]


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    return run_family_figure(
        tuner,
        EXPERIMENT_ID,
        TITLE,
        __doc__.strip(),
        family="miniamr+matmult",
        panels=(8, 16, 24),
        extra_claims=_claims,
    )
