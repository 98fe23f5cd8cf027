"""The end-to-end PMEM-aware workflow scheduler.

This is the system the paper's recommendations are meant to enable (§X:
"Our future work is to explore how these recommendations can be practically
incorporated in scheduling systems").  Given a workflow specification, the
scheduler:

1. extracts its static features (§IV-A parameters);
2. obtains a configuration recommendation (Table II rules and/or the
   quantified §VIII cost model — or the exhaustive oracle if requested);
3. produces a concrete pinning plan on the target node;
4. optionally executes the workflow under the chosen configuration and
   reports the measured outcome, including the regret vs the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.core.configs import SchedulerConfig
from repro.core.pinning import PinningPlan, plan_pinning
from repro.core.recommend import Recommendation, RecommendationEngine
from repro.metrics.results import RunResult
from repro.platform.builder import paper_testbed
from repro.platform.topology import Node
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec


@dataclass(frozen=True)
class ScheduleOutcome:
    """Everything the scheduler decided and (optionally) observed."""

    spec_name: str
    recommendation: Recommendation
    pinning: PinningPlan
    result: Optional[RunResult] = None
    oracle: Optional[TuningReport] = None

    @property
    def config(self) -> SchedulerConfig:
        return self.recommendation.config

    @property
    def regret(self) -> Optional[float]:
        """Fractional slowdown vs the oracle best (None without oracle)."""
        if self.oracle is None:
            return None
        return self.oracle.regret_of(self.config)


class WorkflowScheduler:
    """Recommend, place, and run in situ workflows on a PMEM node.

    Parameters
    ----------
    strategy:
        Recommendation strategy ('table2', 'model', 'hybrid') or 'oracle'
        to exhaustively tune every workflow.
    cal:
        Device calibration shared by recommendation and execution.
    """

    def __init__(
        self,
        strategy: str = "hybrid",
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
    ) -> None:
        self.cal = cal
        self.strategy = strategy
        if strategy == "oracle":
            self._engine: Optional[RecommendationEngine] = None
        else:
            self._engine = RecommendationEngine(strategy=strategy, cal=cal)
        self._tuner = ExhaustiveTuner(cal=cal)

    # ------------------------------------------------------------------
    def recommend(self, spec: WorkflowSpec) -> Recommendation:
        """Configuration recommendation without executing the workflow."""
        if self._engine is not None:
            return self._engine.recommend(spec)
        report = self._tuner.tune(spec)
        from repro.core.features import extract_features

        return Recommendation(
            config=report.best_config,
            strategy="oracle",
            reason=(
                "exhaustive simulation of all configurations; best makespan "
                f"{report.best_result.makespan:.2f}s"
            ),
            features=extract_features(spec, self.cal),
        )

    def schedule(
        self,
        spec: WorkflowSpec,
        node: Optional[Node] = None,
        execute: bool = True,
        with_oracle: bool = False,
    ) -> ScheduleOutcome:
        """Full scheduling pass: recommend, pin, optionally run.

        Parameters
        ----------
        node:
            Target platform for the pinning plan (fresh paper testbed by
            default).  Execution always runs on a fresh node so scheduling
            plans never leak simulated device state between runs.
        execute:
            Run the workflow under the recommended configuration.
        with_oracle:
            Additionally run all configurations to report the regret.
        """
        recommendation = self.recommend(spec)
        plan_node = node if node is not None else paper_testbed(cal=self.cal)
        pinning = plan_pinning(spec, recommendation.config, plan_node)
        result = (
            run_workflow(spec, recommendation.config, cal=self.cal)
            if execute
            else None
        )
        oracle = self._tuner.tune(spec) if with_oracle else None
        return ScheduleOutcome(
            spec_name=spec.name,
            recommendation=recommendation,
            pinning=pinning,
            result=result,
            oracle=oracle,
        )
