"""Hierarchical spans layered on the flat :class:`~repro.sim.trace.Tracer`.

The tracer records one closed interval per (component, rank, phase,
iteration); this module lifts those into an OTel-style tree clocked on
virtual time:

* ``run`` — the whole workflow execution (0 .. makespan);
* ``writer[0]`` / ``reader[3]`` — one span per component rank, covering
  that rank's first to last activity;
* ``iteration 4`` — one span per iteration inside each rank, covering the
  rank's records for that iteration (records outside the iteration loop,
  ``iteration == -1``, attach directly to the rank span);
* leaf phase spans — one per :class:`~repro.sim.trace.TraceRecord`, whose
  ``detail`` becomes the span's attributes.

Span ids are assigned depth-first over the deterministically sorted record
set, so two identical runs build byte-identical span tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.sim.trace import Tracer

#: Span id of the root ``run`` span.
ROOT_SPAN_ID = 1


@dataclass(frozen=True)
class Span:
    """One node of the span tree.

    Attributes
    ----------
    span_id / parent_id:
        Tree linkage; the root span has ``parent_id is None``.
    name:
        ``"run"``, ``"writer[0]"``, ``"iteration 3"``, or a phase name.
    category:
        ``"run"``, ``"rank"``, ``"iteration"``, or ``"phase"``.
    component / rank:
        Track identity (empty/-1 for the root span).
    start / end:
        Virtual-time bounds.
    iteration:
        Iteration index, ``-1`` outside the iteration loop.
    attributes:
        Structured extras (a phase record's ``detail``).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    component: str = ""
    rank: int = -1
    start: float = 0.0
    end: float = 0.0
    iteration: int = -1
    attributes: Dict[str, Any] = field(default_factory=dict, hash=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: The canonical leaf order, as a sort key: ``(component, rank,
#: iteration, start, end, phase)``.  :func:`build_spans` lays leaves out
#: depth-first in this order, and the critical-path walker in
#: :mod:`repro.obs.explain` reads the trace records in it, so both see
#: the same leaf sequence.
record_order = attrgetter("component", "rank", "iteration", "start", "end", "phase")


def build_spans(
    tracer: Tracer, run_name: str = "run", makespan: Optional[float] = None
) -> List[Span]:
    """Build the span tree for a traced run.

    The returned list is ordered root-first, then depth-first by
    (component, rank, iteration, start) — a deterministic function of the
    trace contents.
    """
    records = sorted(tracer.records, key=record_order)
    run_start, run_end = tracer.span()
    if makespan is not None:
        run_end = max(run_end, makespan)
    spans: List[Span] = [
        Span(
            span_id=ROOT_SPAN_ID,
            parent_id=None,
            name=run_name,
            category="run",
            start=min(run_start, 0.0),
            end=run_end,
        )
    ]
    next_id = ROOT_SPAN_ID + 1

    # Group records per (component, rank) track, preserving sort order.
    by_rank: Dict[Any, List] = {}
    for record in records:
        by_rank.setdefault((record.component, record.rank), []).append(record)

    for (component, rank), track in by_rank.items():
        rank_span = Span(
            span_id=next_id,
            parent_id=ROOT_SPAN_ID,
            name=f"{component}[{rank}]",
            category="rank",
            component=component,
            rank=rank,
            start=min(r.start for r in track),
            end=max(r.end for r in track),
        )
        spans.append(rank_span)
        next_id += 1

        by_iteration: Dict[int, List] = {}
        for record in track:
            by_iteration.setdefault(record.iteration, []).append(record)
        for iteration in sorted(by_iteration):
            group = by_iteration[iteration]
            parent = rank_span.span_id
            if iteration >= 0:
                iteration_span = Span(
                    span_id=next_id,
                    parent_id=rank_span.span_id,
                    name=f"iteration {iteration}",
                    category="iteration",
                    component=component,
                    rank=rank,
                    iteration=iteration,
                    start=min(r.start for r in group),
                    end=max(r.end for r in group),
                )
                spans.append(iteration_span)
                next_id += 1
                parent = iteration_span.span_id
            for record in group:
                spans.append(
                    Span(
                        span_id=next_id,
                        parent_id=parent,
                        name=record.phase,
                        category="phase",
                        component=component,
                        rank=rank,
                        iteration=record.iteration,
                        start=record.start,
                        end=record.end,
                        attributes=dict(record.detail),
                    )
                )
                next_id += 1
    return spans


def leaf_spans(spans: List[Span]) -> List[Span]:
    """The phase-level leaves of a span tree."""
    return [span for span in spans if span.category == "phase"]
