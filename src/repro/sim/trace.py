"""Structured timeline tracing for simulated runs.

The workflow runner emits one :class:`TraceRecord` per phase (compute, write,
read, barrier) per rank per iteration.  The metrics layer aggregates these
into the split writer/reader bars shown in the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import TIME_EPSILON


#: Bounds of the finite floats: ``-_INF < x < _INF`` is false for NaN too.
_INF = math.inf


# Not frozen: a frozen dataclass pays one ``object.__setattr__`` per field
# on construction, and an observed run builds one record per phase
# interval.  Records still compare and hash by value (``detail`` excluded),
# and nothing mutates one once the tracer has appended it.
@dataclass(unsafe_hash=True)
class TraceRecord:
    """One closed interval of activity on a simulated rank.

    Attributes
    ----------
    component:
        ``"writer"`` or ``"reader"`` (or any user label).
    rank:
        Rank index within the component.
    phase:
        ``"compute"``, ``"write"``, ``"read"``, ``"wait"`` ...
    start, end:
        Virtual-time bounds of the interval.
    iteration:
        Iteration index, or ``-1`` for phases outside the iteration loop.
    detail:
        Free-form extras (bytes moved, object counts, ...).
    """

    component: str
    rank: int
    phase: str
    start: float
    end: float
    iteration: int = -1
    detail: Dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects :class:`TraceRecord` objects during a run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def record(
        self,
        component: str,
        rank: int,
        phase: str,
        start: float,
        end: float,
        iteration: int = -1,
        **detail: Any,
    ) -> None:
        """Append a record (no-op when tracing is disabled).

        Raises
        ------
        SimulationError
            If either timestamp is non-finite, or the interval runs
            backwards by more than the solver rounding tolerance
            (:data:`~repro.sim.engine.TIME_EPSILON`).  Downstream
            consumers (span building, timeline rendering, exports) all
            assume closed forward intervals; a negative duration would
            silently corrupt every aggregate built on the trace.
        """
        if not self.enabled:
            return
        if not (-_INF < start < _INF and -_INF < end < _INF):
            raise SimulationError(
                f"trace record {component}[{rank}].{phase}: timestamps must "
                f"be finite, got start={start}, end={end}"
            )
        if end < start and end < start - TIME_EPSILON * max(
            1.0, abs(start), abs(end)
        ):
            raise SimulationError(
                f"trace record {component}[{rank}].{phase}: interval runs "
                f"backwards (start={start}, end={end})"
            )
        self.records.append(
            TraceRecord(component, rank, phase, start, end, iteration, detail)
        )

    # -- queries -----------------------------------------------------------
    def by_component(self, component: str) -> List[TraceRecord]:
        return [r for r in self.records if r.component == component]

    def by_phase(self, phase: str) -> List[TraceRecord]:
        return [r for r in self.records if r.phase == phase]

    def total_time(self, component: str, phase: Optional[str] = None) -> float:
        """Sum of durations for *component* (optionally restricted to *phase*)."""
        return sum(
            r.duration
            for r in self.records
            if r.component == component and (phase is None or r.phase == phase)
        )

    def span(self, component: Optional[str] = None) -> Tuple[float, float]:
        """(first start, last end) over all records for *component*."""
        records = self.records if component is None else self.by_component(component)
        if not records:
            return (0.0, 0.0)
        return (min(r.start for r in records), max(r.end for r in records))

    def iter_intervals(self, component: str, rank: int) -> Iterator[TraceRecord]:
        """Records for one rank, in chronological order."""
        selected = [
            r for r in self.records if r.component == component and r.rank == rank
        ]
        return iter(sorted(selected, key=lambda r: (r.start, r.end)))
