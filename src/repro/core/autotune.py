"""Exhaustive configuration tuning (the oracle).

The paper's evaluation enumerates all four Table I configurations for every
workflow; :class:`ExhaustiveTuner` does the same against the simulator and
reports the winner.  It is the ground truth the static recommendation
strategies are validated against (and the fallback a production scheduler
could run offline when a workflow falls outside the recommendation rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.core.configs import ALL_CONFIGS, SchedulerConfig
from repro.errors import ConfigurationError
from repro.metrics.analysis import ConfigComparison, compare_configs
from repro.metrics.results import RunResult
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.cache import ResultCache


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

    With a :class:`~repro.service.cache.ResultCache` attached, ``tune()``
    first looks the workflow up by its content id — a hit rebuilds the
    per-config results from the stored cell without simulating anything,
    and a miss populates the cache for the next caller.  Tracing needs
    live tracer objects, so ``trace=True`` always takes the direct path
    (no cache).
    """

    def __init__(
        self,
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
        configs: Sequence[SchedulerConfig] = ALL_CONFIGS,
        trace: bool = False,
        cache: Optional["ResultCache"] = None,
    ) -> None:
        if not configs:
            raise ConfigurationError("tuner needs at least one configuration")
        self.cal = cal
        self.configs = tuple(configs)
        self.trace = trace
        self.cache = cache

    def tune(self, spec: WorkflowSpec) -> TuningReport:
        """Evaluate *spec* under every configuration."""
        if not self.trace and self.cache is not None:
            return self._tune_via_cell(spec)
        results = [
            run_workflow(spec, config, cal=self.cal, trace=self.trace)
            for config in self.configs
        ]
        return TuningReport(
            workflow_name=spec.name, comparison=compare_configs(results)
        )

    def _tune_via_cell(self, spec: WorkflowSpec) -> TuningReport:
        """Cache-aware path through the campaign cell machinery."""
        from repro.obs.campaign import results_from_cell_payload, run_spec_cell
        from repro.service.cache import cell_id_for_spec

        cached = self.cache.get(cell_id_for_spec(spec, self.configs, self.cal))
        if cached is not None:
            return TuningReport(
                workflow_name=spec.name,
                comparison=compare_configs(
                    results_from_cell_payload(cached.deterministic)
                ),
            )
        cell = run_spec_cell(spec, configs=self.configs, cal=self.cal)
        self.cache.put(cell.stored())
        return TuningReport(
            workflow_name=spec.name,
            comparison=compare_configs(
                results_from_cell_payload(cell.deterministic)
            ),
        )
