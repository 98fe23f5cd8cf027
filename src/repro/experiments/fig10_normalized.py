"""Figure 10: workflow runtime normalized to the fastest configuration.

The paper's capstone figure: for the four application workflows (GTC and
miniAMR with each analytics kernel) at every concurrency, normalize each
configuration's runtime to that workload's best.  Claims reproduced:

* no single configuration is optimal across workflows;
* keeping GTC's Read-Only-optimal configuration when switching to the
  MatrixMult analytics at 16 threads loses ~24 %;
* misconfiguring miniAMR can cost up to ~70 %.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.suite import CONCURRENCY_LEVELS, suite_entry
from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.metrics.report import format_table

EXPERIMENT_ID = "fig10"
TITLE = "Workflow runtime normalized to the fastest configuration"

FAMILIES = (
    "gtc+readonly",
    "gtc+matmult",
    "miniamr+readonly",
    "miniamr+matmult",
)
PANEL_IDS = {"gtc+readonly": "10a", "gtc+matmult": "10b",
             "miniamr+readonly": "10c", "miniamr+matmult": "10d"}
CONFIG_ORDER = ("S-LocW", "S-LocR", "P-LocW", "P-LocR")


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, description=__doc__.strip()
    )
    reports: Dict[str, Dict[int, TuningReport]] = {}
    winners = set()
    for family in FAMILIES:
        reports[family] = {}
        rows = []
        for ranks in CONCURRENCY_LEVELS:
            report = tuner.tune(suite_entry(family, ranks).spec)
            reports[family][ranks] = report
            normalized = report.comparison.normalized
            winners.add(report.comparison.best_label)
            rows.append(
                [ranks]
                + [f"{normalized[c]:.2f}" for c in CONFIG_ORDER]
                + [report.comparison.best_label]
            )
            result.data[f"{family}@{ranks}"] = normalized
        result.artifacts.append(
            format_table(
                ["ranks"] + list(CONFIG_ORDER) + ["best"],
                rows,
                title=f"Fig {PANEL_IDS[family]} — {family} (normalized to best)",
            )
        )

    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.no_single_optimum",
            description="no single configuration is optimal across workflows",
            paper_value=">= 3 distinct winners across the application suite",
            measured_value=", ".join(sorted(winners)),
            holds=len(winners) >= 3,
        )
    )

    # GTC @16: keep the Read-Only winner, switch analytics to MatrixMult.
    ro_best_16 = reports["gtc+readonly"][16].comparison.best_label
    mm_norm = reports["gtc+matmult"][16].comparison.normalized[ro_best_16]
    result.claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.gtc_swap_loss",
            "keeping GTC+RO's configuration for GTC+MM at 16 threads loses ~24 %",
            paper_gap=0.24,
            measured_gap=mm_norm - 1.0,
            rel_tolerance=1.0,
        )
    )

    # miniAMR misconfiguration: worst normalized runtime across panels.
    worst = max(
        max(reports[f][r].comparison.normalized.values())
        for f in ("miniamr+readonly", "miniamr+matmult")
        for r in CONCURRENCY_LEVELS
    )
    result.claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.miniamr_misconfig",
            "misconfiguring miniAMR loses up to ~70 %",
            paper_gap=0.70,
            measured_gap=worst - 1.0,
            rel_tolerance=2.5,
        )
    )
    result.data["winners"] = sorted(winners)
    return result
