"""Optimizer plans: the cheapest exact-frontier point under the budget.

:func:`solve` minimizes the scenario's Σ-makespan subject to the
Σ-footprint PMEM budget.  The exact (ε = 0) frontier of
:mod:`repro.core.optimize.pareto` already respects the budget and sorts
its points by ``(makespan, pmem, selections)``, so its first point is the
plan: equal-makespan optima resolve to the smaller footprint, then to the
lexicographically smallest selection tuple.  Over the suite's 18
workflows x 4 Table I candidates the frontier has at most 60 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.optimize.model import Candidate, Scenario
from repro.core.optimize.pareto import enumerate_frontier
from repro.errors import ConfigurationError

#: Schema marker for serialized plans.  v3 drops v2's remote-traffic
#: figures (constant per workflow), its search-node count and its
#: constant backend name.
PLAN_SCHEMA = "repro.optimize.plan/v3"


@dataclass(frozen=True)
class Plan:
    """A joint assignment: one candidate key per workflow key."""

    selections: Tuple[Tuple[str, str], ...]  # (workflow key, candidate key)
    makespan_seconds: float
    pmem_bytes: int
    feasible: bool

    def candidate_of(self, scenario: Scenario, key: str) -> Candidate:
        for wf_key, cand_key in self.selections:
            if wf_key == key:
                return scenario.choices_of(key).candidate(cand_key)
        raise ConfigurationError(f"plan has no assignment for {key!r}")

    def as_record(self, scenario: Scenario) -> Dict[str, Any]:
        """The ``repro.optimize.plan/v3`` payload (service-consumable)."""
        assignments = {}
        for wf_key, cand_key in self.selections:
            choice = scenario.choices_of(wf_key)
            candidate = choice.candidate(cand_key)
            assignments[wf_key] = {
                "candidate": cand_key,
                "config": candidate.key,
                "iterations": choice.iterations,
                "cell_id": choice.cell_id,
                "mode": candidate.mode,
                "predicted_seconds": candidate.makespan_seconds,
                "pmem_bytes": candidate.pmem_bytes,
                "why": candidate.why,
            }
        return {
            "schema": PLAN_SCHEMA,
            "scenario": scenario.as_record(),
            "assignments": assignments,
            "objectives": {
                "makespan_seconds": self.makespan_seconds,
                "pmem_bytes": self.pmem_bytes,
            },
            "feasible": self.feasible,
        }


def solve(scenario: Scenario) -> Plan:
    """The exact minimum-makespan plan under the PMEM budget.

    An infeasible budget returns the footprint-minimal assignment flagged
    ``feasible: false`` rather than raising; callers decide whether to
    relax the budget.  A truncated frontier raises: its first point may
    not be the optimum.
    """
    points, truncated = enumerate_frontier(scenario, epsilon=0.0)
    if truncated:
        raise ConfigurationError(
            "the exact frontier was truncated, so its first point may not "
            "be optimal; solve fewer workflows at once"
        )
    if points:
        best = points[0]
        return Plan(
            selections=best.selections,
            makespan_seconds=best.makespan_seconds,
            pmem_bytes=best.pmem_bytes,
            feasible=True,
        )
    keys = sorted(scenario.keys)
    picks = [
        min(
            scenario.choices_of(key).candidates,
            key=lambda c: (c.pmem_bytes, c.makespan_seconds, c.key),
        )
        for key in keys
    ]
    return Plan(
        selections=tuple((key, c.key) for key, c in zip(keys, picks)),
        makespan_seconds=sum(c.makespan_seconds for c in picks),
        pmem_bytes=sum(c.pmem_bytes for c in picks),
        feasible=False,
    )
