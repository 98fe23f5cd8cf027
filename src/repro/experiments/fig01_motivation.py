"""Figure 1: motivation — one configuration does not fit a workflow family.

The paper opens by showing two miniAMR workflows (Read-Only vs MatrixMult
analytics) run under two fixed configurations: although the simulation
component is identical, swapping the analytics kernel without adjusting the
configuration loses 1.4-1.6x.  We reproduce it by running both workflows at
16 ranks under each workflow's *other-workflow-optimal* configuration and
normalizing to its own best.
"""

from __future__ import annotations

from repro.apps.suite import suite_entry
from repro.core.autotune import ExhaustiveTuner
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.metrics.report import format_table

EXPERIMENT_ID = "fig01"
TITLE = "Performance of miniAMR workflows with different configurations"

RANKS = 16


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, description=__doc__.strip()
    )
    reports = {}
    for family in ("miniamr+readonly", "miniamr+matmult"):
        entry = suite_entry(family, RANKS)
        reports[family] = tuner.tune(entry.spec)

    ro = reports["miniamr+readonly"]
    mm = reports["miniamr+matmult"]
    ro_best = ro.comparison.best_label
    mm_best = mm.comparison.best_label

    rows = []
    for family, report in reports.items():
        for config in (ro_best, mm_best):
            normalized = report.comparison.normalized[config]
            rows.append((family, config, f"{report.results[config].makespan:.2f} s", f"{normalized:.2f}x"))
    result.artifacts.append(
        format_table(
            ["workflow", "configuration", "runtime", "vs own best"],
            rows,
            title=f"miniAMR workflows at {RANKS} ranks under each other's best configuration",
        )
    )
    result.data["ro_normalized_under_mm_best"] = ro.comparison.normalized[mm_best]
    result.data["mm_normalized_under_ro_best"] = mm.comparison.normalized[ro_best]

    # The paper's 1.4-1.6x loss when the configuration is not adjusted.
    worst_cross = max(
        ro.comparison.normalized[mm_best], mm.comparison.normalized[ro_best]
    )
    result.claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.cross_loss",
            "changing the analytics kernel under a fixed configuration "
            "loses 1.4-1.6x",
            paper_gap=0.5,  # 1.5x = +50 %
            measured_gap=worst_cross - 1.0,
            rel_tolerance=1.2,
            abs_tolerance=0.15,
        )
    )
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.different_best",
            description="the two workflows prefer different configurations",
            paper_value="different optima",
            measured_value=f"{ro_best} vs {mm_best}",
            holds=ro_best != mm_best,
        )
    )
    return result
