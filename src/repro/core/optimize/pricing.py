"""Candidate pricing: turn one workflow into a priced choice list.

:class:`SimulationPricer` prices the four Table I configurations by
simulating them, or from an injected table of run results when a sweep
already ran (``validate``'s frontier self-check reuses the runs of its
Table II re-derivation this way).  Every price is a simulation result:
the optimizer prices nothing the simulator cannot run.  Simulating one workflow's four configurations takes about 0.14 s
on a shared 2-core x86-64 host, about 2.6 s for the 18-workflow suite.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from repro.core.configs import ALL_CONFIGS
from repro.core.optimize.model import (
    Candidate,
    WorkflowChoices,
    retained_pmem_bytes,
)
from repro.core.recommend import RecommendationEngine
from repro.metrics.results import RunResult
from repro.obs.explain import attribution_from_phases, why_line
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec


def _measured_why(result: RunResult) -> str:
    """The explain attribution of a simulated run (phase estimator)."""
    attribution = attribution_from_phases(
        result.config_label,
        result.makespan,
        {
            "writer": dataclasses.asdict(result.writer_phases),
            "reader": dataclasses.asdict(result.reader_phases),
        },
    )
    return why_line(attribution).replace(" (est.)", "")


class SimulationPricer:
    """Price the Table I candidates with the simulator itself.

    ``precomputed`` maps ``"family@ranks"`` to ``{config label:
    RunResult}`` — inject it when a sweep already simulated the suite to
    price at zero additional cost.  Workflows it does not name are
    simulated on demand and their results kept in :attr:`precomputed`.
    """

    def __init__(
        self,
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
        precomputed: Optional[Mapping[str, Mapping[str, RunResult]]] = None,
    ) -> None:
        self.cal = cal
        self.engine = RecommendationEngine(strategy="hybrid", cal=cal)
        self.precomputed = dict(precomputed or {})

    def price(
        self, spec: WorkflowSpec, family: str, ranks: int
    ) -> WorkflowChoices:
        from repro.service.cache import cell_id_for_spec

        key = f"{family}@{ranks}"
        results = self.precomputed.get(key)
        if results is None:
            results = self.precomputed[key] = {
                config.label: run_workflow(spec, config, cal=self.cal)
                for config in ALL_CONFIGS
            }
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
                    why=_measured_why(result),
                )
            )
        return WorkflowChoices(
            key=key,
            family=family,
            ranks=ranks,
            iterations=spec.iterations,
            cell_id=cell_id_for_spec(spec, ALL_CONFIGS, self.cal),
            heuristic_label=self.engine.recommend(spec).config.label,
            candidates=tuple(candidates),
        )
