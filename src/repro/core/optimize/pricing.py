"""Candidate pricing: turn one workflow into a priced choice list.

:class:`SimulationPricer` prices the four Table I configurations from an
:class:`~repro.core.autotune.ExhaustiveTuner`'s report of the workflow,
so a pricer that shares a tuner with a sweep prices from the sweep's runs
(``validate``'s frontier self-check reuses the runs of its Table II
re-derivation this way).  Every price is a simulation result: the
optimizer prices nothing the simulator cannot run.
"""

from __future__ import annotations

from typing import Optional

from repro.core.autotune import ExhaustiveTuner
from repro.core.configs import ALL_CONFIGS
from repro.core.optimize.model import (
    Candidate,
    WorkflowChoices,
    retained_pmem_bytes,
)
from repro.core.recommend import RecommendationEngine
from repro.obs.explain import run_why
from repro.workflow.spec import WorkflowSpec


class SimulationPricer:
    """Price the Table I candidates with the simulator itself.

    Prices are read from ``tuner.tune(spec)``: a tuner that already tuned
    the workflow prices it at zero additional cost, and a fresh one (the
    default) simulates each workflow once and keeps its runs.
    """

    def __init__(self, tuner: Optional[ExhaustiveTuner] = None) -> None:
        self.tuner = tuner if tuner is not None else ExhaustiveTuner()
        self.engine = RecommendationEngine(strategy="hybrid", cal=self.tuner.cal)

    def price(
        self, spec: WorkflowSpec, family: str, ranks: int
    ) -> WorkflowChoices:
        from repro.service.cache import cell_id_for_spec

        results = self.tuner.tune(spec).results
        candidates = []
        for config in ALL_CONFIGS:
            result = results[config.label]
            mode = config.mode.value
            candidates.append(
                Candidate(
                    key=config.label,
                    mode=mode,
                    makespan_seconds=result.makespan,
                    pmem_bytes=retained_pmem_bytes(spec, mode),
                    why=run_why(result),
                )
            )
        return WorkflowChoices(
            key=f"{family}@{ranks}",
            family=family,
            ranks=ranks,
            iterations=spec.iterations,
            cell_id=cell_id_for_spec(spec, ALL_CONFIGS, self.tuner.cal),
            heuristic_label=self.engine.recommend(spec).config.label,
            candidates=tuple(candidates),
        )
