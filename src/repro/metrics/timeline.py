"""ASCII Gantt rendering of a traced run.

Turns the :class:`~repro.sim.trace.Tracer` records of a workflow run into a
per-rank timeline, making the scheduling structure visible at a glance:
compute (``.``), writes (``W``), reads (``R``), version waits (``w``), and
barrier waits (``|``) — e.g. the lockstep write bursts of a serial run vs
the interleaved bands of a parallel one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.sim.trace import Tracer

#: Phase -> glyph used in the timeline body.
PHASE_GLYPHS: Dict[str, str] = {
    "compute": ".",
    "write": "W",
    "read": "R",
    "wait": "w",
    "barrier": "|",
}


def render_timeline(
    tracer: Tracer,
    width: int = 100,
    components: Tuple[str, ...] = ("writer", "reader"),
) -> str:
    """Render the trace as one fixed-width row per rank.

    Each column covers ``span / width`` seconds; the glyph shown is the
    phase active at the column's midpoint (idle columns print a space).
    """
    if width < 10:
        raise ConfigurationError("timeline width must be >= 10")
    if not tracer.records:
        raise ConfigurationError("cannot render an empty trace")
    start, end = tracer.span()
    span = end - start
    if span <= 0:
        raise ConfigurationError("trace span is empty")
    column_seconds = span / width

    lines: List[str] = [
        f"timeline: {span:.2f}s total, one column = {column_seconds * 1000:.1f} ms "
        f"({', '.join(f'{glyph}={phase}' for phase, glyph in PHASE_GLYPHS.items())})"
    ]
    for component in components:
        ranks = sorted({r.rank for r in tracer.by_component(component)})
        for rank in ranks:
            # Single chronological sweep: column midpoints are increasing
            # and the intervals are sorted by (start, end), so records with
            # start <= t form a growing prefix.  Keep the started-but-not-
            # ended records in sorted order and show the first one — the
            # same record the old per-column scan found, without re-walking
            # the whole rank history for every column.
            intervals = list(tracer.iter_intervals(component, rank))
            active: List = []
            next_record = 0
            row = []
            for column in range(width):
                t = start + (column + 0.5) * column_seconds
                while next_record < len(intervals) and intervals[next_record].start <= t:
                    active.append(intervals[next_record])
                    next_record += 1
                if active:
                    active = [record for record in active if record.end > t]
                glyph = PHASE_GLYPHS.get(active[0].phase, "?") if active else " "
                row.append(glyph)
            lines.append(f"{component[:6]:>6}[{rank:2d}] {''.join(row)}")
    return "\n".join(lines)
