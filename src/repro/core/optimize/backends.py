"""Optimizer backend: exact branch-and-bound over the joint assignment.

:class:`BranchBoundOptimizer` minimizes the scenario's **makespan**
objective subject to the Σ-footprint PMEM budget and is fully
deterministic: workflows are visited in key order, candidates in
:data:`~repro.core.configs.ALL_CONFIGS` order, and every tie is broken
lexicographically.

The search is depth-first with two admissible prunes: an optimistic
makespan bound (current cost + Σ of each remaining workflow's fastest
candidate) and a feasibility bound (current footprint + Σ of each
remaining workflow's *smallest* footprint).  Worst case is exponential.
Unbudgeted, the makespan bound leads straight to the per-workflow argmin.
Under a binding budget it is weak: the suite's 18 workflows x 4 Table I
candidates under a 300 GB budget explore 72,981 nodes, guarded exactly as
``bb_nodes`` in ``BENCH_simcore.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Tuple

from repro.core.optimize.model import Candidate, Scenario
from repro.errors import ConfigurationError

#: Schema marker for serialized plans.  v2 records each assignment's
#: ``cell_id``, the one campaign cell its price holds for.
PLAN_SCHEMA = "repro.optimize.plan/v2"


@dataclass(frozen=True)
class Plan:
    """A joint assignment: one candidate key per workflow key."""

    #: The ``backend`` the plan schema records: branch-and-bound is the
    #: only optimizer, so every plan says ``"exact"``.
    backend: ClassVar[str] = "exact"
    selections: Tuple[Tuple[str, str], ...]  # (workflow key, candidate key)
    makespan_seconds: float
    pmem_bytes: int
    remote_bytes: int
    feasible: bool
    nodes_explored: int = 0

    def candidate_of(self, scenario: Scenario, key: str) -> Candidate:
        for wf_key, cand_key in self.selections:
            if wf_key == key:
                return scenario.choices_of(key).candidate(cand_key)
        raise ConfigurationError(f"plan has no assignment for {key!r}")

    def as_record(self, scenario: Scenario) -> Dict[str, Any]:
        """The ``repro.optimize.plan/v2`` payload (service-consumable)."""
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
                "remote_bytes": candidate.remote_bytes,
                "why": candidate.why,
            }
        return {
            "schema": PLAN_SCHEMA,
            "backend": self.backend,
            "scenario": scenario.as_record(),
            "assignments": assignments,
            "objectives": {
                "makespan_seconds": self.makespan_seconds,
                "pmem_bytes": self.pmem_bytes,
                "remote_bytes": self.remote_bytes,
            },
            "feasible": self.feasible,
            "nodes_explored": self.nodes_explored,
        }


def _plan_from(picks: Dict[str, Candidate], feasible: bool, nodes: int) -> Plan:
    selections = tuple(sorted((key, c.key) for key, c in picks.items()))
    return Plan(
        selections=selections,
        makespan_seconds=sum(c.makespan_seconds for c in picks.values()),
        pmem_bytes=sum(c.pmem_bytes for c in picks.values()),
        remote_bytes=sum(c.remote_bytes for c in picks.values()),
        feasible=feasible,
        nodes_explored=nodes,
    )


class BranchBoundOptimizer:
    """Exact minimum-makespan assignment under the PMEM budget."""

    def solve(self, scenario: Scenario) -> Plan:
        order = sorted(scenario.keys)
        choice_sets = [scenario.choices_of(key).candidates for key in order]
        budget = scenario.limits.pmem_budget_bytes
        # Suffix bounds: the best any completion of a partial assignment
        # can do (makespan) / must pay (footprint).
        n = len(order)
        min_makespan_suffix = [0.0] * (n + 1)
        min_pmem_suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            min_makespan_suffix[i] = min_makespan_suffix[i + 1] + min(
                c.makespan_seconds for c in choice_sets[i]
            )
            min_pmem_suffix[i] = min_pmem_suffix[i + 1] + min(
                c.pmem_bytes for c in choice_sets[i]
            )

        best: Dict[str, Any] = {"cost": float("inf"), "picks": None, "key": None}
        nodes = {"count": 0}

        def tie_key(picks: List[Candidate]) -> Tuple:
            return (
                sum(c.remote_bytes for c in picks),
                sum(c.pmem_bytes for c in picks),
                tuple(c.key for c in picks),
            )

        def descend(i: int, makespan: float, pmem: int, picks: List[Candidate]):
            nodes["count"] += 1
            if budget is not None and pmem + min_pmem_suffix[i] > budget:
                return
            if makespan + min_makespan_suffix[i] > best["cost"]:
                return
            if i == n:
                # Lexicographic (makespan, tie) compare: ties on the float
                # cost fall through to the deterministic tie key without an
                # explicit equality test on the virtual time.
                leaf_key = (makespan, tie_key(picks))
                if best["key"] is None or leaf_key < best["key"]:
                    best["cost"] = makespan
                    best["picks"] = list(picks)
                    best["key"] = leaf_key
                return
            for candidate in sorted(
                choice_sets[i], key=lambda c: c.makespan_seconds
            ):
                picks.append(candidate)
                descend(
                    i + 1,
                    makespan + candidate.makespan_seconds,
                    pmem + candidate.pmem_bytes,
                    picks,
                )
                picks.pop()

        descend(0, 0.0, 0, [])
        if best["picks"] is None:
            # Budget infeasible even at minimum footprint: report the
            # footprint-minimal assignment with the flag down rather than
            # crash — callers decide whether to relax the budget.
            picks = {
                key: min(
                    cands, key=lambda c: (c.pmem_bytes, c.makespan_seconds, c.key)
                )
                for key, cands in zip(order, choice_sets)
            }
            return _plan_from(picks, False, nodes["count"])
        picks = dict(zip(order, best["picks"]))
        return _plan_from(picks, True, nodes["count"])
