"""Generic builder for the per-family runtime figures (Figs. 4-9).

Each of those figures shows, for one workload family, the end-to-end
runtime of all four configurations at 8/16/24 ranks (serial bars split into
writer/reader).  The per-figure modules supply the family, the panel list,
and the figure-specific quantified claims.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.apps.suite import suite_entry
from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    panel_chart,
    winner_claim,
)

ClaimsFn = Callable[[Dict[int, TuningReport]], List[Claim]]


def run_family_figure(
    tuner: ExhaustiveTuner,
    experiment_id: str,
    title: str,
    description: str,
    family: str,
    panels: Sequence[int],
    extra_claims: Optional[ClaimsFn] = None,
) -> ExperimentResult:
    """Tune one workload family across all configurations and rank counts."""
    result = ExperimentResult(
        experiment_id=experiment_id, title=title, description=description
    )
    reports: Dict[int, TuningReport] = {}
    for ranks in panels:
        entry = suite_entry(family, ranks)
        report = tuner.tune(entry.spec)
        reports[ranks] = report
        result.artifacts.append(panel_chart(entry, report))
        result.claims.append(
            winner_claim(f"{experiment_id}.winner.{ranks}", entry, report)
        )
        result.data[f"makespans@{ranks}"] = report.comparison.makespans()
        result.data[f"normalized@{ranks}"] = report.comparison.normalized
        result.data[f"best@{ranks}"] = report.comparison.best_label
    if extra_claims is not None:
        result.claims.extend(extra_claims(reports))
    return result
