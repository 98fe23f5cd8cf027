"""Text reports over observed runs: hot phases and run-to-run diffs.

``hot_phase_report`` answers "where did the virtual time go" without
leaving the terminal: leaf phases (trace records) are aggregated per
``component;phase`` stack (flamegraph convention) and rendered as a
sorted bar chart with totals, call counts and share of makespan.

``diff_report`` compares two exported trace documents (the ``"repro"``
section written by :func:`repro.obs.export.chrome_trace`) run by run:
makespan movement, counter-total deltas and manifest changes.  Because it
reads exported files rather than live objects, it diffs anything —
two configs, two code versions, two calibration tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.capture import Observation
from repro.obs.spans import record_order
from repro.units import fmt_time

#: Width of the textual bar in the hot-phase report.
BAR_WIDTH = 30

#: Relative change below which a counter/makespan delta is noise, not news.
DIFF_EPSILON = 1e-9


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
    return "\n".join(lines)


def utilization_report(observations: Sequence[Observation]) -> str:
    """Busy/wait/idle fractions per component and resource, per run.

    The ``summary`` CLI's second table (the first is the hot-phase bar
    chart); the same rows feed ``explain top``.  Component rows average
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


# ----------------------------------------------------------------------
# Diffing exported traces.
# ----------------------------------------------------------------------
def _runs_by_id(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    repro = document.get("repro") or {}
    return {run["run_id"]: run for run in repro.get("runs", [])}


def _fmt_delta(before: float, after: float) -> str:
    delta = after - before
    if abs(before) > DIFF_EPSILON:
        return f"{before:g} -> {after:g} ({100.0 * delta / before:+.1f}%)"
    return f"{before:g} -> {after:g}"


def diff_report(
    document_a: Dict[str, Any], document_b: Dict[str, Any]
) -> str:
    """Human-readable run-by-run diff of two exported trace documents."""
    runs_a = _runs_by_id(document_a)
    runs_b = _runs_by_id(document_b)
    lines: List[str] = []
    for run_id in sorted(set(runs_a) - set(runs_b)):
        lines.append(f"-- {run_id}: only in first trace")
    for run_id in sorted(set(runs_b) - set(runs_a)):
        lines.append(f"++ {run_id}: only in second trace")
    for run_id in sorted(set(runs_a) & set(runs_b)):
        run_a, run_b = runs_a[run_id], runs_b[run_id]
        changes: List[str] = []
        makespan_a, makespan_b = run_a["makespan"], run_b["makespan"]
        if abs(makespan_b - makespan_a) > DIFF_EPSILON * max(1.0, abs(makespan_a)):
            changes.append(f"makespan: {_fmt_delta(makespan_a, makespan_b)}")
        counters_a = run_a.get("counters", {})
        counters_b = run_b.get("counters", {})
        for label in sorted(set(counters_a) | set(counters_b)):
            value_a = counters_a.get(label, 0.0)
            value_b = counters_b.get(label, 0.0)
            if abs(value_b - value_a) > DIFF_EPSILON * max(1.0, abs(value_a)):
                changes.append(f"counter {label}: {_fmt_delta(value_a, value_b)}")
        manifest_a = run_a.get("manifest", {})
        manifest_b = run_b.get("manifest", {})
        for key in sorted(set(manifest_a) | set(manifest_b)):
            if manifest_a.get(key) != manifest_b.get(key):
                changes.append(
                    f"manifest {key}: {manifest_a.get(key)!r} -> "
                    f"{manifest_b.get(key)!r}"
                )
        if changes:
            lines.append(f"== {run_id}")
            lines.extend(f"   {change}" for change in changes)
        else:
            lines.append(f"== {run_id}: identical")
    if not lines:
        lines.append("(no runs in either trace)")
    return "\n".join(lines)
