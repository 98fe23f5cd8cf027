"""Decision model for the global placement optimizer.

The heuristic recommenders answer "which Table I configuration for *this*
workflow?".  The optimizer generalizes the question to a whole suite: per
workflow it chooses one of the four Table I configurations (execution
mode x channel placement), subject to a PMEM capacity budget, and scores
each joint choice on three additive objectives:

* **makespan** — Σ of per-workflow makespans (workflows execute one at a
  time; a campaign is a serial queue over the suite);
* **PMEM footprint** — Σ of *retained* channel bytes.  Channels persist
  for the campaign (the paper's App-Direct channels are named, durable
  objects), so footprints add even though compute is time-shared.  Serial
  execution retains the full stream; parallel streaming retains only a
  two-snapshot producer/consumer window;
* **remote traffic** — Σ of bytes that cross the UPI link.  Every Table I
  configuration pins the two components to opposite sockets, so one of
  them moves the whole stream across the link.

Each workflow's choice set is its four Table I candidates, every one
priced by simulation (:mod:`repro.core.optimize.pricing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.platform.topology import Node
from repro.workflow.spec import WorkflowSpec

#: Snapshots a parallel (streaming) channel retains: the producer's
#: in-flight snapshot plus the consumer's in-read snapshot.
PARALLEL_WINDOW_SNAPSHOTS = 2


@dataclass(frozen=True)
class Candidate:
    """One Table I configuration for one workflow, priced by simulation.

    ``key`` is the configuration's Table I label (``"S-LocW"`` ...).
    """

    key: str
    mode: str  # "serial" | "parallel"
    makespan_seconds: float
    pmem_bytes: int
    remote_bytes: int
    why: str


def retained_pmem_bytes(spec: WorkflowSpec, mode: str) -> int:
    """Channel bytes retained in PMEM for the campaign's duration.

    Serial execution drains the whole stream before the reader starts, so
    the channel holds every version; parallel streaming trims consumed
    versions and holds only the producer/consumer window.
    """
    if mode == "serial":
        return spec.total_data_bytes()
    return min(
        spec.total_data_bytes(),
        PARALLEL_WINDOW_SNAPSHOTS * spec.ranks * spec.snapshot.snapshot_bytes,
    )


@dataclass(frozen=True)
class WorkflowChoices:
    """One workflow's priced candidates plus the heuristic's pick.

    ``candidates`` are in :data:`~repro.core.configs.ALL_CONFIGS` order,
    which breaks every makespan tie.  The prices hold for one workload
    only: ``iterations`` is the iteration count it was simulated at, and
    ``cell_id`` the id of the campaign cell that runs exactly it (the
    same spec, all four configurations, the same calibration).
    """

    key: str  # "family@ranks"
    family: str
    ranks: int
    iterations: int
    cell_id: str
    heuristic_label: str
    candidates: Tuple[Candidate, ...]

    def candidate(self, key: str) -> Candidate:
        for candidate in self.candidates:
            if candidate.key == key:
                return candidate
        raise ConfigurationError(
            f"{self.key}: no candidate {key!r}; have "
            f"{[c.key for c in self.candidates]}"
        )

    @property
    def makespan_best(self) -> Candidate:
        """Fastest candidate (ties: the first in Table I order)."""
        return min(self.candidates, key=lambda c: c.makespan_seconds)

    @property
    def heuristic_candidate(self) -> Candidate:
        return self.candidate(self.heuristic_label)


@dataclass(frozen=True)
class ScenarioLimits:
    """The scenario's Σ-footprint PMEM budget.

    By default the node's total PMEM, tightened via ``--pmem-budget`` to
    model sharing the device with other tenants.
    """

    pmem_budget_bytes: Optional[int]

    @staticmethod
    def from_node(
        node: Node, pmem_budget_bytes: Optional[int] = None
    ) -> "ScenarioLimits":
        total_pmem = sum(s.pmem.capacity_bytes for s in node.sockets)
        budget = pmem_budget_bytes if pmem_budget_bytes is not None else total_pmem
        if budget <= 0:
            raise ConfigurationError(
                f"pmem budget must be positive, got {budget}"
            )
        return ScenarioLimits(pmem_budget_bytes=budget)

    def as_record(self) -> Dict[str, Any]:
        return {"pmem_budget_bytes": self.pmem_budget_bytes}


@dataclass(frozen=True)
class Scenario:
    """A whole optimization instance: per-workflow choices plus limits."""

    choices: Tuple[WorkflowChoices, ...]
    limits: ScenarioLimits

    def __post_init__(self) -> None:
        keys = [c.key for c in self.choices]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate workflow keys: {keys}")

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(c.key for c in self.choices)

    def choices_of(self, key: str) -> WorkflowChoices:
        for choice in self.choices:
            if choice.key == key:
                return choice
        raise ConfigurationError(f"no workflow {key!r} in scenario")

    def as_record(self) -> Dict[str, Any]:
        return {
            "workflows": list(self.keys),
            "limits": self.limits.as_record(),
        }
