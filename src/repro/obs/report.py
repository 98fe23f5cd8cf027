"""Text reports over observed runs: hot phases and utilization.

``hot_phase_report`` answers "where did the virtual time go" without
leaving the terminal: leaf phases (trace records) are aggregated per
``component;phase`` stack (flamegraph convention) and rendered as a
sorted bar chart with totals, call counts and share of makespan.
Each run's block ends with its solver health (solves, memo hit rate,
solves at the iteration cap).  ``utilization_report`` adds the
busy/wait/idle table per track.  Both
are the ``summary`` command; comparing two runs is ``campaign diff``'s
job (:func:`repro.obs.campaign.diff_campaigns`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.obs.capture import Observation
from repro.obs.spans import record_order
from repro.units import fmt_time

#: Width of the textual bar in the hot-phase report.
BAR_WIDTH = 30


def _phase_totals(observation: Observation) -> Dict[str, Tuple[float, int]]:
    """``component;phase`` stack -> (total seconds, span count).

    Each trace record is one leaf phase span; summing in record order
    gives the span tree's float sums without building it.
    """
    totals: Dict[str, Tuple[float, int]] = {}
    for record in sorted(observation.tracer.records, key=record_order):
        stack = f"{record.component};{record.phase}"
        seconds, count = totals.get(stack, (0.0, 0))
        totals[stack] = (seconds + (record.end - record.start), count + 1)
    return totals


def hot_phase_report(observations: Sequence[Observation]) -> str:
    """Flamegraph-style text report of where virtual time was spent."""
    if isinstance(observations, Observation):
        observations = [observations]
    lines: List[str] = []
    for observation in observations:
        makespan = observation.result.makespan if observation.result else 0.0
        lines.append(f"== {observation.run_id} — makespan {fmt_time(makespan)} ==")
        totals = _phase_totals(observation)
        if not totals:
            lines.append("  (no trace records)")
            continue
        widest = max(totals.values(), key=lambda item: item[0])[0]
        ordered = sorted(totals.items(), key=lambda item: (-item[1][0], item[0]))
        stack_width = max(len(stack) for stack in totals)
        for stack, (seconds, count) in ordered:
            bar = "#" * max(1, round(BAR_WIDTH * seconds / widest)) if widest else ""
            share = 100.0 * seconds / makespan if makespan else 0.0
            lines.append(
                f"  {stack:<{stack_width}}  {fmt_time(seconds):>10}"
                f"  {share:5.1f}%  x{count:<5d} {bar}"
            )
        waits = observation.probes.counter_total("channel.version_waits")
        published = observation.probes.counter_total("channel.versions_published")
        events = observation.probes.counter_total("engine.events_executed")
        lines.append(
            f"  engine events {events:.0f}, versions published {published:.0f}, "
            f"reader waits {waits:.0f}"
        )
        if observation.solver_stats:
            lines.append(solver_health_line(observation.solver_stats))
    return "\n".join(lines)


def solver_health_line(stats: Dict[str, int]) -> str:
    """One run's solver health from ``Observation.solver_stats``: its
    solves, the converged-state memo's hit rate and the solves that
    stopped at the iteration cap without converging."""
    hits = stats["solver_memo_hits"]
    lookups = hits + stats["solver_memo_misses"]
    rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "n/a"
    return (
        f"  solver: {stats['solves']} solves, memo hit rate {rate}, "
        f"{stats['solves_at_cap']} at the iteration cap"
    )


def utilization_report(observations: Sequence[Observation]) -> str:
    """Busy/wait/idle fractions per component and resource, per run.

    The ``summary`` CLI's second table (the first is the hot-phase bar
    chart); ``explain run`` prints the same rows.  Component rows average
    over ranks from the leaf spans; resource rows integrate the
    ``resource.occupancy`` gauges over ``[0, makespan]``.
    """
    from repro.obs.explain import render_utilization, utilization_rows

    if isinstance(observations, Observation):
        observations = [observations]
    lines: List[str] = []
    for observation in observations:
        lines.append(f"== {observation.run_id} — utilization ==")
        lines.append(render_utilization(utilization_rows(observation)))
    return "\n".join(lines)
