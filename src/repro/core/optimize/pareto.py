"""ε-dominance Pareto frontier over joint suite assignments.

Objectives are additive over workflows, so the frontier of the joint
space is computed by dynamic programming: fold workflows in key order,
extending every surviving partial assignment by every feasible candidate
and pruning dominated partials after each fold (a Minkowski sum with
dominance filtering).  Two controls keep the partial sets small and the
output stable:

* **ε-coalescing** — partials are snapped to a multiplicative grid
  (cell ``floor(ln(v)/ln(1+ε))`` per axis); within one cell only the
  lexicographically smallest representative survives.  ε=0 disables
  coalescing (exact frontier).
* **deterministic ordering** — points sort by (makespan, pmem,
  selection tuple); JSON is dumped with sorted keys and fixed float
  repr, so a frontier file is byte-identical across runs and machines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.optimize.model import Scenario
from repro.errors import ConfigurationError
from repro.units import KiB

#: Schema marker for serialized frontiers.
FRONTIER_SCHEMA = "repro.optimize.frontier/v2"

#: Hard cap on surviving partials per fold: past this, the smallest
#: (sorted order) survivors are kept and the frontier is marked truncated.
MAX_PARTIALS = 4 * KiB


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated joint assignment."""

    makespan_seconds: float
    pmem_bytes: int
    selections: Tuple[Tuple[str, str], ...]

    @property
    def objectives(self) -> Tuple[float, int]:
        return (self.makespan_seconds, self.pmem_bytes)

    @property
    def sort_key(self) -> Tuple:
        return self.objectives + (self.selections,)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Weak Pareto dominance: a no worse everywhere, better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_filter(points: List[FrontierPoint]) -> List[FrontierPoint]:
    """Non-dominated subset, in deterministic sorted order.

    Sorting by the full key first makes the filter O(n²/2) and the
    output order-independent: a point can only be dominated by one that
    sorts before it.
    """
    ordered = sorted(points, key=lambda p: p.sort_key)
    kept: List[FrontierPoint] = []
    for point in ordered:
        if any(dominates(k.objectives, point.objectives) for k in kept):
            continue
        # Drop exact-objective duplicates: the first (lexicographically
        # smallest selection) representative already survived.
        if kept and kept[-1].objectives == point.objectives:
            continue
        kept.append(point)
    return kept


def _cell(value: float, epsilon: float) -> int:
    if value <= 0:
        return -1
    return int(math.floor(math.log(value) / math.log1p(epsilon)))


def coalesce(
    points: List[FrontierPoint], epsilon: float
) -> List[FrontierPoint]:
    """ε-coalescing: one representative per multiplicative grid cell."""
    if epsilon <= 0:
        return points
    cells: Dict[Tuple[int, int], FrontierPoint] = {}
    for point in sorted(points, key=lambda p: p.sort_key):
        cell = (
            _cell(point.makespan_seconds, epsilon),
            _cell(float(point.pmem_bytes), epsilon),
        )
        cells.setdefault(cell, point)
    return sorted(cells.values(), key=lambda p: p.sort_key)


def enumerate_frontier(
    scenario: Scenario, epsilon: float = 0.0
) -> Tuple[List[FrontierPoint], bool]:
    """The scenario's (ε-)Pareto frontier; returns (points, truncated)."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ConfigurationError(
            f"epsilon must be finite and >= 0, got {epsilon}"
        )
    budget = scenario.limits.pmem_budget_bytes
    partials: List[FrontierPoint] = [FrontierPoint(0.0, 0, ())]
    truncated = False
    for key in sorted(scenario.keys):
        candidates = scenario.choices_of(key).candidates
        extended: List[FrontierPoint] = []
        for partial in partials:
            for candidate in candidates:
                pmem = partial.pmem_bytes + candidate.pmem_bytes
                if budget is not None and pmem > budget:
                    continue
                extended.append(
                    FrontierPoint(
                        makespan_seconds=partial.makespan_seconds
                        + candidate.makespan_seconds,
                        pmem_bytes=pmem,
                        selections=partial.selections + ((key, candidate.key),),
                    )
                )
        partials = coalesce(pareto_filter(extended), epsilon)
        if len(partials) > MAX_PARTIALS:
            partials = partials[:MAX_PARTIALS]
            truncated = True
        if not partials:
            # Budget infeasible: no joint assignment fits.
            return [], truncated
    return partials, truncated


def frontier_payload(
    scenario: Scenario,
    points: List[FrontierPoint],
    epsilon: float,
    truncated: bool,
    heuristic: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``repro.optimize.frontier/v2`` payload."""
    records = []
    for point in sorted(points, key=lambda p: p.sort_key):
        records.append(
            {
                "makespan_seconds": point.makespan_seconds,
                "pmem_bytes": point.pmem_bytes,
                "selections": {key: cand for key, cand in point.selections},
                "why": {
                    key: scenario.choices_of(key).candidate(cand).why
                    for key, cand in point.selections
                },
            }
        )
    payload: Dict[str, Any] = {
        "schema": FRONTIER_SCHEMA,
        "scenario": scenario.as_record(),
        "epsilon": epsilon,
        "truncated": truncated,
        "points": records,
    }
    if heuristic is not None:
        payload["heuristic"] = dict(heuristic)
    return payload


def frontier_json(payload: Mapping[str, Any]) -> str:
    """Canonical serialization (byte-identical across runs)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def validate_frontier(payload: Mapping[str, Any]) -> List[str]:
    """Schema + invariant check; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if payload.get("schema") != FRONTIER_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {FRONTIER_SCHEMA!r}"
        )
    points = payload.get("points")
    if not isinstance(points, list):
        return problems + ["points is not a list"]
    vectors = []
    for index, point in enumerate(points):
        prefix = f"points[{index}]"
        for field, kind in (
            ("makespan_seconds", (int, float)),
            ("pmem_bytes", int),
        ):
            if not isinstance(point.get(field), kind):
                problems.append(f"{prefix}: bad {field}")
        if not isinstance(point.get("selections"), dict):
            problems.append(f"{prefix}: selections is not a mapping")
        if not isinstance(point.get("why"), dict):
            problems.append(f"{prefix}: why is not a mapping")
        elif set(point.get("why", {})) != set(point.get("selections", {})):
            problems.append(f"{prefix}: why keys differ from selections")
        vectors.append(
            (point.get("makespan_seconds", 0.0), point.get("pmem_bytes", 0))
        )
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            if i != j and dominates(a, b):
                problems.append(f"points[{j}] is dominated by points[{i}]")
    if vectors != sorted(vectors):
        problems.append("points are not sorted by objective vector")
    return problems
