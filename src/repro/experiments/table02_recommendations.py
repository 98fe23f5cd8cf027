"""Table II: configuration recommendations for workflows.

The paper's deliverable: ten rows mapping workflow characteristics to the
configuration a scheduler should pick.  We validate the rule engine three
ways per suite workflow:

* the Table II rule engine's pick (the literal paper artifact);
* the quantified cost-model recommender (the §VIII logic);
* the exhaustive oracle (ground truth under our simulator).

Claims: the rule engine picks the paper's configuration for every
illustrative workload, and its regret vs the oracle is small.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.apps.suite import workflow_suite
from repro.core.autotune import ExhaustiveTuner
from repro.core.recommend import RecommendationEngine
from repro.experiments.common import Claim, ExperimentResult
from repro.metrics.report import format_table
from repro.metrics.results import RunResult
from repro.obs.explain import attribution_from_phases, why_line
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration

EXPERIMENT_ID = "table02"
TITLE = "Configuration recommendations for workflows"


def _why(result: RunResult) -> str:
    """The oracle winner's dominant blame bucket, from phase breakdowns.

    Uses the estimator (no extra simulation): the tuner keeps phase
    averages but not traces.  The ``(est.)`` tag the estimator appends is
    dropped here — every row of this column is estimated the same way.
    """
    attribution = attribution_from_phases(
        result.config_label,
        result.makespan,
        {
            "writer": dataclasses.asdict(result.writer_phases),
            "reader": dataclasses.asdict(result.reader_phases),
        },
    )
    return why_line(attribution).replace(" (est.)", "")


def run(cal: Optional[OptaneCalibration] = None) -> ExperimentResult:
    """Regenerate Table II."""
    cal = cal or DEFAULT_CALIBRATION
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, description=__doc__.strip()
    )
    table_engine = RecommendationEngine(strategy="hybrid", cal=cal)
    model_engine = RecommendationEngine(strategy="model", cal=cal)
    tuner = ExhaustiveTuner(cal=cal)

    rows = []
    table_hits = 0
    model_hits = 0
    oracle_hits = 0
    regrets = []
    entries = workflow_suite()
    for entry in entries:
        table_rec = table_engine.recommend(entry.spec)
        model_rec = model_engine.recommend(entry.spec)
        report = tuner.tune(entry.spec)
        oracle_best = report.comparison.best_label
        pick_label = table_rec.config.label
        pick_note = (
            f" (row {table_rec.matched_rule})" if table_rec.matched_rule else ""
        )
        table_hits += pick_label == entry.paper_best
        model_hits += model_rec.config.label == entry.paper_best
        oracle_hits += oracle_best == entry.paper_best
        regret = report.regret_of(table_rec.config)
        regrets.append(regret)
        rows.append(
            (
                entry.spec.name,
                entry.paper_best,
                f"{pick_label}{pick_note}",
                model_rec.config.label,
                oracle_best,
                f"{regret:.1%}",
                _why(report.results[oracle_best]),
            )
        )
    result.artifacts.append(
        format_table(
            [
                "workflow",
                "paper",
                "Table II engine",
                "cost model",
                "oracle",
                "engine regret",
                "why",
            ],
            rows,
        )
    )
    n = len(entries)
    result.data["table_hits"] = table_hits
    result.data["model_hits"] = model_hits
    result.data["oracle_hits"] = oracle_hits
    result.data["total"] = n
    result.data["max_regret"] = max(regrets)
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.rule_engine",
            description="the Table II rule engine picks the paper's configuration",
            paper_value="10/10 rows (18/18 suite workflows)",
            measured_value=f"{table_hits}/{n}",
            holds=table_hits >= n - 2,
            note="near-miss panels are documented in EXPERIMENTS.md",
        )
    )
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.engine_regret",
            description="following the rule engine costs little vs the oracle",
            paper_value="recommendations maximize PMEM benefit",
            measured_value=f"max regret {max(regrets):.1%}",
            holds=max(regrets) <= 0.25,
        )
    )
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.model_agreement",
            description="the quantified §VIII cost model agrees on most workflows",
            paper_value="static rules capture the decision",
            measured_value=f"{model_hits}/{n}",
            holds=model_hits >= int(0.6 * n),
        )
    )
    return result
