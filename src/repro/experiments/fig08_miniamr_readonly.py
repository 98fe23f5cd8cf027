"""Figure 8: miniAMR + Read-Only analytics.

Paper findings: small objects with an I/O-heavy simulation.  At 8 threads
parallel wins (P-LocR); at 16 serial local-read wins, ~6 % over the second
best P-LocR (§VI-B); at 24 threads the simulation begins to saturate write
bandwidth and S-LocW is 25 % faster than S-LocR (§VI-A).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.experiments.family_figure import run_family_figure
from repro.metrics.analysis import gap_between

EXPERIMENT_ID = "fig08"
TITLE = "miniAMR + Read only: Runtime"


def _claims(reports: Dict[int, TuningReport]) -> List[Claim]:
    claims: List[Claim] = []
    measured = gap_between(reports[16].results, "S-LocR", "P-LocR")
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.serial_gain.16",
            "S-LocR ~6 % faster than the second best (P-LocR) at 16 threads",
            paper_gap=0.06,
            measured_gap=measured,
            rel_tolerance=2.5,
        )
    )
    measured = gap_between(reports[24].results, "S-LocW", "S-LocR")
    claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.locw_gain.24",
            "S-LocW 25 % faster than S-LocR at 24 threads",
            paper_gap=0.25,
            measured_gap=measured,
            rel_tolerance=1.0,
        )
    )
    return claims


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    return run_family_figure(
        tuner,
        EXPERIMENT_ID,
        TITLE,
        __doc__.strip(),
        family="miniamr+readonly",
        panels=(8, 16, 24),
        extra_claims=_claims,
    )
