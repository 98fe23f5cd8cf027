"""Headline claim: up to 69-70 % performance swing from configuration choice.

§I: "We demonstrated up to 69 % performance improvement, measured by
end-to-end workflow execution runtime"; §X: "achieved performance can vary
up to 70 % depending on how workflow components are configured".  We
measure, over the full suite, the largest improvement obtained by moving
from the worst to the best configuration (1 - best/worst).
"""

from __future__ import annotations

from repro.apps.suite import workflow_suite
from repro.core.autotune import ExhaustiveTuner
from repro.experiments.common import ExperimentResult, gap_claim
from repro.metrics.report import format_table

EXPERIMENT_ID = "headline"
TITLE = "Maximum configuration-choice impact across the suite"


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, description=__doc__.strip()
    )
    rows = []
    best_improvement = 0.0
    app_improvement = 0.0
    for entry in workflow_suite():
        report = tuner.tune(entry.spec)
        makespans = report.comparison.makespans()
        worst = max(makespans.values())
        best = min(makespans.values())
        improvement = 1.0 - best / worst
        best_improvement = max(best_improvement, improvement)
        if not entry.family.startswith("micro"):
            app_improvement = max(app_improvement, improvement)
        rows.append(
            (
                entry.spec.name,
                f"{best:.2f} s",
                f"{worst:.2f} s",
                f"{improvement:.1%}",
            )
        )
    result.artifacts.append(
        format_table(
            ["workflow", "best config", "worst config", "improvement"],
            rows,
            title="Best-vs-worst configuration improvement per workflow",
        )
    )
    result.data["max_improvement"] = best_improvement
    result.data["max_app_improvement"] = app_improvement
    result.claims.append(
        gap_claim(
            f"{EXPERIMENT_ID}.improvement",
            "up to ~69-70 % end-to-end improvement from configuration choice",
            paper_gap=0.69,
            measured_gap=best_improvement,
            rel_tolerance=0.5,
        )
    )
    return result
