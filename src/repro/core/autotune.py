"""Exhaustive configuration tuning (the oracle).

The paper's evaluation enumerates all four Table I configurations for every
workflow; :class:`ExhaustiveTuner` does the same against the simulator and
reports the winner.  It is the ground truth the static recommendation
strategies are validated against (and the fallback a production scheduler
could run offline when a workflow falls outside the recommendation rules).

A tuner is also the sweep's result set: it keeps every report it made, so
the views that share one tuner (each experiment of a ``repro-experiments``
invocation, ``optimize validate``'s re-derivation and frontier) read one
simulation per cell instead of re-running it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.configs import ALL_CONFIGS, SchedulerConfig
from repro.errors import ConfigurationError
from repro.metrics.analysis import ConfigComparison, compare_configs
from repro.metrics.results import RunResult
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec


@dataclass(frozen=True)
class TuningReport:
    """Outcome of exhaustively evaluating one workflow."""

    workflow_name: str
    comparison: ConfigComparison

    @property
    def best_config(self) -> SchedulerConfig:
        return SchedulerConfig.from_label(self.comparison.best_label)

    @property
    def best_result(self) -> RunResult:
        return self.comparison.best_result

    @property
    def results(self) -> Dict[str, RunResult]:
        return self.comparison.results

    def makespan_of(self, config: SchedulerConfig) -> float:
        """Makespan under *config* (raises if it was not evaluated)."""
        try:
            return self.results[config.label].makespan
        except KeyError:
            raise ConfigurationError(
                f"configuration {config.label} was not evaluated"
            ) from None

    def regret_of(self, config: SchedulerConfig) -> float:
        """Fractional slowdown of *config* vs the oracle best (0.0 = best)."""
        best = self.best_result.makespan
        return self.makespan_of(config) / best - 1.0 if best > 0 else 0.0


class ExhaustiveTuner:
    """Run a workflow under every configuration and pick the fastest.

    ``tune()`` memoizes its report per spec: calibration and configurations
    are fixed per tuner, so the (frozen, hashable) spec alone names the
    cell, and tuning it again returns the same report object.  Every
    caller shares that report, so callers treat it as read-only.
    """

    def __init__(
        self,
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
        configs: Sequence[SchedulerConfig] = ALL_CONFIGS,
    ) -> None:
        if not configs:
            raise ConfigurationError("tuner needs at least one configuration")
        self.cal = cal
        self.configs = tuple(configs)
        self._reports: Dict[WorkflowSpec, TuningReport] = {}

    def tune(self, spec: WorkflowSpec) -> TuningReport:
        """Evaluate *spec* under every configuration (once per tuner)."""
        report = self._reports.get(spec)
        if report is None:
            results = [
                run_workflow(spec, config, cal=self.cal) for config in self.configs
            ]
            report = self._reports[spec] = TuningReport(
                workflow_name=spec.name, comparison=compare_configs(results)
            )
        return report
