"""Trace analytics: critical paths, tier blame, and explainable diffs.

The campaign layer answers *which* Table I configuration wins each cell;
this module answers *why* — the evidence a PMEM-aware workflow scheduler
needs before it can act on the recommendation.  Everything here is a pure,
deterministic function of already-recorded observability state (trace
records, probe series, run manifests): no new instrumentation, no wall
clock, byte-identical output for identical runs.

Three layers:

**Critical path** — :func:`critical_path` walks the run's
:class:`~repro.sim.trace.TraceRecord` leaves (one per phase interval:
the leaves of the span tree, without building it) backward from the
last-finishing one and chains each leaf to the activity that gated its
start: the previous phase on the same rank when the track is
contiguous, or — across a gap — the latest-ending leaf anywhere in the
run (how a serial reader chains to ``writers-complete``).  The resulting
segments tile ``[0, makespan]`` exactly, so their durations *sum to the
makespan by construction* (the acceptance invariant
:func:`validate_explain_report` enforces within ``TIME_EPSILON``).

**Blame attribution** — every segment lands in one bucket of
:data:`BUCKETS`:

* ``compute`` — simulation or analytics compute phases;
* ``barrier`` — writer collective time (load imbalance across ranks);
* ``drain``   — reader version waits: the NVStream channel had not yet
  drained the version the critical rank needed.  Blamed on the channel
  socket's PMEM device (plus the UPI link when the producing writer was
  remote) — "pmem drain on socket 1";
* ``pmem``    — socket-local channel I/O on the critical path;
* ``remote``  — channel I/O that crossed the UPI interconnect;
* ``dram``    — DRAM-tier I/O (always zero for the paper's App-Direct
  channel; kept so the schema covers DRAM-staged variants);
* ``idle``    — path gaps (should stay ~0; a non-zero value flags a trace
  hole, not a scheduling effect).

:func:`attribute` folds the path into buckets and per-resource seconds;
:func:`attribution_record` compresses that into the compact per-config
summary the campaign store persists, and
:func:`attribution_from_phases` derives the same record shape from the
phase breakdowns alone — the estimator used for cells stored before
attribution existed and for untraced run results.

**Explainable diffs** — :func:`explain_shift` turns two attribution
records into one sentence ("drain on pmem[1] grew 38.2% (12.3 s ->
17.0 s)"); :func:`flip_explanation` and :func:`drift_explanation` attach
those sentences to the winner flips, makespan drifts and sub-threshold
attribution shifts that ``python -m repro.obs campaign diff`` prints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.configs import SchedulerConfig
from repro.errors import SimulationError
from repro.obs.probes import step_fraction_above
from repro.obs.spans import record_order
from repro.sim.engine import TIME_EPSILON
from repro.sim.trace import TraceRecord
from repro.units import fmt_time

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.results import RunResult
    from repro.obs.capture import Observation

#: Version of the explain-report schema (bumped on breaking changes).
EXPLAIN_SCHEMA_VERSION = 1

#: Attribution buckets, in render order.  ``idle`` is last on purpose:
#: it is a diagnostic (trace coverage), not a scheduling cause.
BUCKETS: Tuple[str, ...] = (
    "compute",
    "barrier",
    "drain",
    "pmem",
    "remote",
    "dram",
    "idle",
)

#: Buckets a scheduler can act on (``idle`` is excluded from dominance
#: and from diff explanations).
CAUSE_BUCKETS: Tuple[str, ...] = BUCKETS[:-1]

#: Absolute bucket shift below which a diff explanation is noise.
SHIFT_EPSILON = 1e-9

#: Relative floor on bucket shifts: movements under 0.1% of the bucket
#: explain nothing (and estimated-vs-precise records differ at float
#: noise level on identical runs).
RELATIVE_SHIFT_FLOOR = 1e-3


# ----------------------------------------------------------------------
# Critical-path extraction.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path (segments tile [0, makespan])."""

    start: float
    end: float
    bucket: str
    component: str = ""
    rank: int = -1
    phase: str = ""
    iteration: int = -1
    resources: Tuple[str, ...] = ()
    gated_by: str = "t=0"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> Dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "bucket": self.bucket,
            "component": self.component,
            "rank": self.rank,
            "phase": self.phase,
            "iteration": self.iteration,
            "resources": list(self.resources),
            "gated_by": self.gated_by,
        }


def _upi_name(socket_a: int, socket_b: int) -> str:
    lo, hi = sorted((socket_a, socket_b))
    return f"upi[{lo}<->{hi}]"


@dataclass(frozen=True)
class _PathContext:
    """Placement facts needed to classify critical-path segments."""

    writer_local: bool
    writer_socket: int
    reader_socket: int

    @property
    def channel_socket(self) -> int:
        return self.writer_socket if self.writer_local else self.reader_socket

    @property
    def writer_remote(self) -> bool:
        return not self.writer_local

    @property
    def reader_remote(self) -> bool:
        return self.writer_local

    def io_resources(self, component: str) -> Tuple[str, ...]:
        """Resources a component's channel I/O traverses."""
        remote = self.writer_remote if component == "writer" else self.reader_remote
        path: Tuple[str, ...] = (f"pmem[{self.channel_socket}]",)
        if remote:
            path += (_upi_name(self.writer_socket, self.reader_socket),)
        return path

    def cpu_resource(self, component: str) -> Tuple[str, ...]:
        socket = self.writer_socket if component == "writer" else self.reader_socket
        return (f"cpu[{socket}]",)


def path_context(
    config_label: str, writer_socket: int = 0, reader_socket: int = 1
) -> _PathContext:
    """Build the classification context from a Table I label + sockets."""
    config = SchedulerConfig.from_label(config_label)
    return _PathContext(
        writer_local=config.writer_local,
        writer_socket=writer_socket,
        reader_socket=reader_socket,
    )


def leaf_tracks(
    records: Iterable[TraceRecord],
) -> Dict[Tuple[str, int], List[TraceRecord]]:
    """Leaf records grouped per ``(component, rank)`` track, time-ordered.

    The grouping the critical-path walker chains through: each track is
    stably sorted by ``(start, end, phase, iteration)`` — the order of
    :func:`~repro.obs.spans.record_order` re-sorted stably by ``(start,
    end, phase)``, without sorting the whole trace first — and the
    mapping iterates tracks in sorted key order: all deterministic
    functions of the trace contents.
    """
    tracks: Dict[Tuple[str, int], List[TraceRecord]] = {}
    for record in records:
        tracks.setdefault((record.component, record.rank), []).append(record)
    by_time = attrgetter("start", "end", "phase", "iteration")
    return {key: sorted(tracks[key], key=by_time) for key in sorted(tracks)}


def last_finishing_leaf(records: Iterable[TraceRecord]) -> Optional[TraceRecord]:
    """The leaf whose completion defines the makespan.

    Ties on the end timestamp break toward the lexicographically largest
    ``(component, rank)`` — in practice the highest reader rank, the
    track whose finish the paper's makespan measurement observes; a tie
    within one track keeps the first leaf in record order.
    """
    leaves = list(records)
    if not leaves:
        return None
    finish = attrgetter("end", "component", "rank")
    last = finish(max(leaves, key=finish))
    return min((leaf for leaf in leaves if finish(leaf) == last), key=record_order)


def _classify(
    record: TraceRecord, context: _PathContext
) -> Tuple[str, Tuple[str, ...]]:
    """(bucket, resources) for one leaf record on the critical path."""
    if record.phase == "compute":
        return "compute", context.cpu_resource(record.component)
    if record.phase == "barrier":
        return "barrier", context.cpu_resource(record.component)
    if record.phase == "wait":
        # The reader stalls until the channel drains the version it needs:
        # blame the channel's PMEM (and the UPI link feeding it, when the
        # producing writer is remote).
        return "drain", context.io_resources("writer")
    if record.phase in ("write", "read"):
        remote = (
            context.writer_remote
            if record.component == "writer"
            else context.reader_remote
        )
        return ("remote" if remote else "pmem"), context.io_resources(
            record.component
        )
    # Future phases default to compute: they consume the critical rank's
    # time without touching the channel.
    return "compute", context.cpu_resource(record.component)


def _describe(record: Optional[TraceRecord]) -> str:
    if record is None:
        return "t=0"
    suffix = f" v{record.iteration}" if record.iteration >= 0 else ""
    return f"{record.component}[{record.rank}] {record.phase}{suffix}"


def _gate(
    record: TraceRecord,
    tracks: Mapping[Tuple[str, int], List[TraceRecord]],
    ordered: Sequence[TraceRecord],
    boundary: float,
) -> Optional[TraceRecord]:
    """The leaf whose completion gated *record*'s start (None at t=0).

    Same-rank chaining wins while the track is contiguous; across a gap
    (the record's track has nothing ending at its start — a serial
    reader's first read, gated on ``writers-complete``) the chain jumps
    to the latest-ending leaf anywhere in the run that finished by the
    boundary.
    """
    if boundary <= TIME_EPSILON:
        return None
    track = tracks[(record.component, record.rank)]
    previous: Optional[TraceRecord] = None
    for candidate in track:
        if candidate is record:
            break
        if candidate.end <= boundary + TIME_EPSILON:
            previous = candidate
    if previous is not None and previous.end >= boundary - TIME_EPSILON:
        return previous
    # Cross-track jump: latest-ending leaf that finished by the boundary.
    best: Optional[TraceRecord] = None
    for candidate in ordered:
        if candidate is record:
            continue
        if candidate.end > boundary + TIME_EPSILON:
            continue
        if best is None or candidate.end > best.end + TIME_EPSILON:
            best = candidate
    return best if best is not None else previous


def critical_path(
    records: Iterable[TraceRecord], makespan: float, context: _PathContext
) -> List[PathSegment]:
    """Extract the gating chain of leaf records, tiling ``[0, makespan]``.

    *records* are a run's trace records (``observation.tracer.records``).
    The walk starts at the last-finishing leaf (ties broken by the
    deterministic ``(component, rank)`` order) and follows :func:`_gate`
    backward.  Chain gaps become explicit ``idle`` segments, so the
    returned durations always sum to the makespan exactly — attribution
    never silently loses time.
    """
    leaves = list(records)
    if not leaves or makespan <= 0:
        return (
            [PathSegment(start=0.0, end=makespan, bucket="idle")]
            if makespan > 0
            else []
        )
    tracks = leaf_tracks(leaves)
    ordered = [leaf for track in tracks.values() for leaf in track]
    current: Optional[TraceRecord] = last_finishing_leaf(leaves)
    segments: List[PathSegment] = []
    cursor = makespan
    # Each step consumes at least one leaf or closes a gap; 2n+2 bounds it.
    for _ in range(2 * len(ordered) + 2):
        if current is None or cursor <= TIME_EPSILON:
            break
        if current.end < cursor - TIME_EPSILON:
            # Nothing on the chain covers (current.end, cursor): trace gap.
            segments.append(
                PathSegment(
                    start=current.end,
                    end=cursor,
                    bucket="idle",
                    gated_by=_describe(current),
                )
            )
            cursor = current.end
        seg_start = max(min(current.start, cursor), 0.0)
        gate = _gate(current, tracks, ordered, seg_start)
        if cursor - seg_start > TIME_EPSILON:
            bucket, resources = _classify(current, context)
            segments.append(
                PathSegment(
                    start=seg_start,
                    end=cursor,
                    bucket=bucket,
                    component=current.component,
                    rank=current.rank,
                    phase=current.phase,
                    iteration=current.iteration,
                    resources=resources,
                    gated_by=_describe(gate),
                )
            )
        cursor = seg_start
        current = gate
    if cursor > TIME_EPSILON:
        segments.append(PathSegment(start=0.0, end=cursor, bucket="idle"))
    segments.reverse()
    return segments


def _leaf_records(observation: "Observation") -> List[TraceRecord]:
    """The finalized run's leaf trace records (one per phase interval)."""
    if observation.tracer is None or observation.result is None:
        raise SimulationError("observation has no finalized trace to explain")
    return observation.tracer.records


# ----------------------------------------------------------------------
# Utilization (shared by `summary` and `explain`).
# ----------------------------------------------------------------------
def utilization_rows(observation: "Observation") -> List[Dict[str, Any]]:
    """Busy/wait/idle fractions per component and per resource.

    Component rows come from the leaf trace records (busy = compute +
    channel I/O, wait = barriers + version waits, averaged over ranks); resource
    rows come from the ``resource.occupancy`` gauges (busy = any flow or
    poller active, wait = contended, i.e. more than one occupant).
    Everything is measured on virtual time over ``[0, makespan]``.
    """
    makespan = observation.result.makespan if observation.result else 0.0
    rows: List[Dict[str, Any]] = []
    busy_time: Dict[str, float] = {}
    wait_time: Dict[str, float] = {}
    ranks: Dict[str, set] = {}
    # The canonical leaf order fixes the float summation order.
    for record in sorted(_leaf_records(observation), key=record_order):
        ranks.setdefault(record.component, set()).add(record.rank)
        if record.phase in ("wait", "barrier"):
            wait_time[record.component] = (
                wait_time.get(record.component, 0.0) + record.duration
            )
        else:
            busy_time[record.component] = (
                busy_time.get(record.component, 0.0) + record.duration
            )
    for component in sorted(ranks):
        denominator = makespan * max(len(ranks[component]), 1)
        busy = busy_time.get(component, 0.0) / denominator if denominator else 0.0
        wait = wait_time.get(component, 0.0) / denominator if denominator else 0.0
        rows.append(
            {
                "name": component,
                "kind": "component",
                "busy": busy,
                "wait": wait,
                "idle": max(0.0, 1.0 - busy - wait),
            }
        )
    for instrument in observation.probes.instruments():
        if instrument.kind != "gauge" or instrument.name != "resource.occupancy":
            continue
        attrs = dict(instrument.attrs)
        resource = str(attrs.get("resource", instrument.label))
        samples = getattr(instrument, "samples", [])
        busy = step_fraction_above(samples, makespan, 0.0)
        contended = step_fraction_above(samples, makespan, 1.0)
        rows.append(
            {
                "name": resource,
                "kind": "resource",
                "busy": busy,
                "wait": contended,
                "idle": max(0.0, 1.0 - busy),
            }
        )
    return rows


def render_utilization(rows: Sequence[Mapping[str, Any]]) -> str:
    """Fixed-width busy/wait/idle table (one frame of ``summary``)."""
    if not rows:
        return "  (no utilization data)"
    width = max(len(str(row["name"])) for row in rows)
    lines = [
        f"  {'track':<{width}}  {'kind':<9}  {'busy':>6}  {'wait':>6}  {'idle':>6}"
    ]
    for row in rows:
        lines.append(
            f"  {str(row['name']):<{width}}  {str(row['kind']):<9}"
            f"  {row['busy']:>6.1%}  {row['wait']:>6.1%}  {row['idle']:>6.1%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run explanation.
# ----------------------------------------------------------------------
@dataclass
class RunExplanation:
    """The full root-cause analysis of one observed run."""

    run_id: str
    workflow: str
    config: str
    makespan: float
    segments: List[PathSegment] = field(default_factory=list)
    buckets: Dict[str, float] = field(default_factory=dict)
    resource_seconds: Dict[str, float] = field(default_factory=dict)
    critical_track: str = ""
    coupling: str = ""
    channel_socket: int = 0
    utilization: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def dominant(self) -> str:
        """The largest actionable bucket (ties: :data:`BUCKETS` order)."""
        return max(CAUSE_BUCKETS, key=lambda b: (self.buckets.get(b, 0.0), ))

    @property
    def dominant_fraction(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.buckets.get(self.dominant, 0.0) / self.makespan

    def as_record(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "workflow": self.workflow,
            "config": self.config,
            "makespan": self.makespan,
            "buckets": {bucket: self.buckets.get(bucket, 0.0) for bucket in BUCKETS},
            "dominant": self.dominant,
            "dominant_fraction": self.dominant_fraction,
            "critical_track": self.critical_track,
            "coupling": self.coupling,
            "channel_socket": self.channel_socket,
            "resource_seconds": dict(sorted(self.resource_seconds.items())),
            "segments": [segment.as_record() for segment in self.segments],
            "utilization": self.utilization,
        }

    # -- rendering ------------------------------------------------------
    def render_text(self, segments: bool = False) -> str:
        lines = [
            f"== {self.run_id} — makespan {fmt_time(self.makespan)} ==",
            f"  critical track {self.critical_track or '(none)'}, "
            f"coupling {self.coupling}, "
            f"dominant {self.dominant} ({self.dominant_fraction:.1%})",
        ]
        for bucket in BUCKETS:
            seconds = self.buckets.get(bucket, 0.0)
            if seconds <= 0 and bucket != self.dominant:
                continue
            share = seconds / self.makespan if self.makespan else 0.0
            lines.append(
                f"    {bucket:<8} {fmt_time(seconds):>10}  {share:6.1%}"
            )
        if self.resource_seconds:
            lines.append("  critical seconds per resource:")
            for resource, seconds in sorted(self.resource_seconds.items()):
                lines.append(f"    {resource:<14} {fmt_time(seconds):>10}")
        if self.utilization:
            lines.append("  utilization (busy/wait/idle on virtual time):")
            lines.append(render_utilization(self.utilization))
        if segments:
            lines.append("  critical path (oldest first):")
            for segment in self.segments:
                label = (
                    f"{segment.component}[{segment.rank}] {segment.phase}"
                    if segment.component
                    else "(gap)"
                )
                lines.append(
                    f"    {fmt_time(segment.start):>10} .. "
                    f"{fmt_time(segment.end):>10}  {segment.bucket:<8} "
                    f"{label:<20} gated by {segment.gated_by}"
                )
        return "\n".join(lines)


def attribute(observation: "Observation") -> RunExplanation:
    """Critical path, buckets and per-resource seconds of one observed run.

    Walks the run's trace records directly — no span tree, no
    utilization — so this is all a stored campaign cell pays for its
    :func:`attribution_record`.
    """
    if observation.result is None or observation.manifest is None:
        raise SimulationError("explain needs a finalized observation")
    manifest = observation.manifest
    context = path_context(
        manifest.config,
        writer_socket=manifest.writer_socket,
        reader_socket=manifest.reader_socket,
    )
    makespan = observation.result.makespan
    segments = critical_path(_leaf_records(observation), makespan, context)
    buckets = {bucket: 0.0 for bucket in BUCKETS}
    resource_seconds: Dict[str, float] = {}
    for segment in segments:
        buckets[segment.bucket] += segment.duration
        for resource in segment.resources:
            resource_seconds[resource] = (
                resource_seconds.get(resource, 0.0) + segment.duration
            )
    phase_segments = [s for s in segments if s.component]
    critical_track = (
        f"{phase_segments[-1].component}[{phase_segments[-1].rank}]"
        if phase_segments
        else ""
    )
    return RunExplanation(
        run_id=observation.run_id,
        workflow=manifest.workflow,
        config=manifest.config,
        makespan=makespan,
        segments=segments,
        buckets=buckets,
        resource_seconds=resource_seconds,
        critical_track=critical_track,
        coupling=f"writer->reader via pmem[{context.channel_socket}]",
        channel_socket=context.channel_socket,
    )


def explain_observation(observation: "Observation") -> RunExplanation:
    """Root-cause one observed run: :func:`attribute` plus utilization."""
    explanation = attribute(observation)
    explanation.utilization = utilization_rows(observation)
    return explanation


def explain_spec(spec, config, cal=None, **run_kwargs) -> RunExplanation:
    """Run *spec* under *config* and explain it in one call."""
    from repro.obs.capture import observe_workflow

    if cal is not None:
        run_kwargs["cal"] = cal
    return explain_observation(observe_workflow(spec, config, **run_kwargs))


# ----------------------------------------------------------------------
# Compact attribution records (what the campaign store persists).
# ----------------------------------------------------------------------
def attribution_record(explanation: RunExplanation) -> Dict[str, Any]:
    """The byte-stable per-config summary stored in a campaign cell."""
    return {
        "schema": EXPLAIN_SCHEMA_VERSION,
        "buckets": {
            bucket: explanation.buckets.get(bucket, 0.0) for bucket in BUCKETS
        },
        "dominant": explanation.dominant,
        "dominant_fraction": explanation.dominant_fraction,
        "critical_track": explanation.critical_track,
        "coupling": explanation.coupling,
        "channel_socket": explanation.channel_socket,
        "resource_seconds": dict(sorted(explanation.resource_seconds.items())),
    }


def attribution_from_phases(
    config_label: str,
    makespan: float,
    phases: Mapping[str, Mapping[str, float]],
    writer_socket: int = 0,
    reader_socket: int = 1,
) -> Dict[str, Any]:
    """Estimate an attribution record from phase breakdowns alone.

    The critical-path engine needs the full trace; cells stored before
    attribution existed (and untraced run results) only keep per-rank
    phase averages.  This estimator maps those onto the same buckets: the
    reader's averages always count (its last rank ends the run), the
    writer's only in serial mode (in parallel mode writer time surfaces
    as reader drain).  Marked ``"estimated": true`` so consumers can tell
    the two apart.
    """
    config = SchedulerConfig.from_label(config_label)
    context = _PathContext(
        writer_local=config.writer_local,
        writer_socket=writer_socket,
        reader_socket=reader_socket,
    )
    buckets = {bucket: 0.0 for bucket in BUCKETS}
    reader = phases.get("reader", {})
    writer = phases.get("writer", {})
    buckets["compute"] += float(reader.get("compute", 0.0))
    buckets["drain"] += float(reader.get("wait", 0.0))
    buckets["remote" if context.reader_remote else "pmem"] += float(
        reader.get("io", 0.0)
    )
    if not config.parallel:
        buckets["compute"] += float(writer.get("compute", 0.0))
        buckets["barrier"] += float(writer.get("wait", 0.0))
        buckets["remote" if context.writer_remote else "pmem"] += float(
            writer.get("io", 0.0)
        )
    accounted = sum(buckets.values())
    buckets["idle"] = max(0.0, makespan - accounted)
    dominant = max(CAUSE_BUCKETS, key=lambda b: (buckets.get(b, 0.0), ))
    return {
        "schema": EXPLAIN_SCHEMA_VERSION,
        "estimated": True,
        "buckets": buckets,
        "dominant": dominant,
        "dominant_fraction": (
            buckets[dominant] / makespan if makespan > 0 else 0.0
        ),
        "critical_track": "",
        "coupling": f"writer->reader via pmem[{context.channel_socket}]",
        "channel_socket": context.channel_socket,
        "resource_seconds": {},
    }


def config_attribution(entry: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The attribution record of one stored per-config payload entry.

    Prefers the precise critical-path record written since this module
    existed; falls back to the phase estimator for older cells; returns
    None when the entry has neither.
    """
    attribution = entry.get("attribution")
    if isinstance(attribution, dict) and "buckets" in attribution:
        return attribution
    makespan = entry.get("makespan")
    phases = entry.get("phases")
    manifest = entry.get("manifest") or {}
    config_label = manifest.get("config")
    if makespan is None or not isinstance(phases, Mapping) or not config_label:
        return None
    try:
        return attribution_from_phases(
            config_label,
            float(makespan),
            phases,
            writer_socket=int(manifest.get("writer_socket", 0)),
            reader_socket=int(manifest.get("reader_socket", 1)),
        )
    except (ValueError, TypeError):
        return None


def blame_resource(attribution: Mapping[str, Any], bucket: str) -> str:
    """The resource a bucket's time is blamed on, for diff sentences."""
    socket = attribution.get("channel_socket", 0)
    if bucket in ("drain", "pmem", "remote", "dram"):
        return f"pmem[{socket}]"
    return "cpu"


def why_line(attribution: Optional[Mapping[str, Any]]) -> str:
    """One compact cause phrase: ``"drain 61.8% on pmem[1]"``."""
    if not attribution:
        return "-"
    dominant = attribution.get("dominant", "?")
    fraction = attribution.get("dominant_fraction", 0.0)
    line = f"{dominant} {fraction:.1%}"
    if dominant in ("drain", "pmem", "remote", "dram"):
        line += f" on {blame_resource(attribution, dominant)}"
    if attribution.get("estimated"):
        line += " (est.)"
    return line


def run_why(result: "RunResult") -> str:
    """The why line of an untraced run, estimated from its phases.

    The ``(est.)`` tag is dropped: every caller (Table II's oracle
    column, the optimizer's candidate prices) estimates all its rows the
    same way.
    """
    attribution = attribution_from_phases(
        result.config_label,
        result.makespan,
        {
            "writer": asdict(result.writer_phases),
            "reader": asdict(result.reader_phases),
        },
    )
    return why_line(attribution).replace(" (est.)", "")


# ----------------------------------------------------------------------
# Explainable diffs.
# ----------------------------------------------------------------------
def bucket_shift(
    attribution_a: Mapping[str, Any], attribution_b: Mapping[str, Any]
) -> Optional[Tuple[str, float, float]]:
    """The actionable bucket that moved most, as (bucket, before, after)."""
    buckets_a = attribution_a.get("buckets", {})
    buckets_b = attribution_b.get("buckets", {})
    best: Optional[Tuple[str, float, float]] = None
    best_delta = 0.0
    for bucket in CAUSE_BUCKETS:
        before = float(buckets_a.get(bucket, 0.0))
        after = float(buckets_b.get(bucket, 0.0))
        delta = abs(after - before)
        if delta <= max(
            SHIFT_EPSILON, RELATIVE_SHIFT_FLOOR * max(abs(before), abs(after))
        ):
            continue
        if delta > best_delta:
            best_delta = delta
            best = (bucket, before, after)
    return best


def explain_shift(
    attribution_a: Mapping[str, Any], attribution_b: Mapping[str, Any]
) -> Optional[str]:
    """One sentence for the dominant bucket movement between two runs."""
    shift = bucket_shift(attribution_a, attribution_b)
    if shift is None:
        return None
    bucket, before, after = shift
    resource = blame_resource(attribution_b, bucket)
    verb = "grew" if after > before else "shrank"
    if before > SHIFT_EPSILON:
        change = f"{abs(after - before) / before:.1%}"
    else:
        change = f"to {fmt_time(after)}"
    sentence = (
        f"{bucket} on {resource} {verb} {change} "
        f"({fmt_time(before)} -> {fmt_time(after)})"
    )
    if attribution_a.get("estimated") or attribution_b.get("estimated"):
        sentence += " [estimated]"
    return sentence


def flip_explanation(
    before_label: str,
    after_label: str,
    configs_a: Mapping[str, Mapping[str, Any]],
    configs_b: Mapping[str, Mapping[str, Any]],
) -> str:
    """Why a cell's winner flipped between two campaigns.

    The question a flip raises is "what happened to the old winner?", so
    the sentence compares the *before*-winner's attribution across the
    two campaigns; the new winner's own history is the fallback evidence.
    (:func:`~repro.obs.campaign.diff_campaigns` counts a flip only when
    both campaigns ran both winners.)
    """
    for label in (before_label, after_label):
        entry_a = configs_a.get(label)
        entry_b = configs_b.get(label)
        if entry_a is None or entry_b is None:
            continue
        attribution_a = config_attribution(entry_a)
        attribution_b = config_attribution(entry_b)
        if attribution_a is None or attribution_b is None:
            continue
        sentence = explain_shift(attribution_a, attribution_b)
        if sentence is not None:
            return f"flipped because {label} {sentence}"
    return "no attribution recorded for either campaign"


def drift_explanation(
    entry_a: Mapping[str, Any], entry_b: Mapping[str, Any]
) -> Optional[str]:
    """Why one config's makespan drifted (None when nothing shifted)."""
    attribution_a = config_attribution(entry_a)
    attribution_b = config_attribution(entry_b)
    if attribution_a is None or attribution_b is None:
        return None
    return explain_shift(attribution_a, attribution_b)


# ----------------------------------------------------------------------
# Campaign-level bottleneck ranking (`explain top`).
# ----------------------------------------------------------------------
def cell_bottleneck(deterministic: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The winner config's attribution summary for one stored cell."""
    winner = deterministic.get("winner")
    configs = deterministic.get("configs", {})
    entry = configs.get(winner) if winner else None
    if entry is None:
        return None
    attribution = config_attribution(entry)
    if attribution is None:
        return None
    return {
        "winner": winner,
        "dominant": attribution.get("dominant", "?"),
        "fraction": float(attribution.get("dominant_fraction", 0.0)),
        "resource": blame_resource(
            attribution, attribution.get("dominant", "compute")
        ),
        "estimated": bool(attribution.get("estimated", False)),
        "why": why_line(attribution),
    }


def campaign_bottlenecks(cells: Sequence[Any]) -> List[Dict[str, Any]]:
    """Per-cell winner bottlenecks, worst (most dominated) first.

    *cells* are :class:`~repro.obs.campaign.CellResult`-shaped objects
    (``.key`` + ``.deterministic``); duck-typed to keep this module free
    of a campaign import cycle.
    """
    rows: List[Dict[str, Any]] = []
    for cell in cells:
        bottleneck = cell_bottleneck(cell.deterministic)
        if bottleneck is None:
            continue
        rows.append({"key": cell.key, **bottleneck})
    rows.sort(key=lambda row: (-row["fraction"], row["key"]))
    return rows


def render_top(rows: Sequence[Mapping[str, Any]]) -> str:
    """The ranked bottleneck table of one campaign."""
    if not rows:
        return "no attributed cells in the campaign"
    width = max(len(row["key"]) for row in rows)
    lines = [
        f"{'cell':<{width}}  {'winner':<8}  {'bottleneck':<12}  "
        f"{'share':>6}  resource"
    ]
    for row in rows:
        bucket = row["dominant"] + (" est." if row["estimated"] else "")
        lines.append(
            f"{row['key']:<{width}}  {row['winner']:<8}  {bucket:<12}  "
            f"{row['fraction']:>6.1%}  {row['resource']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Report document + schema validator.
# ----------------------------------------------------------------------
def explain_report(explanations: Sequence[RunExplanation]) -> Dict[str, Any]:
    """The JSON explain-report document (``explain run --out``)."""
    return {
        "record": "explain_report",
        "schema_version": EXPLAIN_SCHEMA_VERSION,
        "generator": "repro.obs.explain",
        "runs": [explanation.as_record() for explanation in explanations],
    }


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and (
        math.isfinite(value)
    )


def validate_explain_report(document: Any) -> List[str]:
    """Problems with an explain-report document; empty list means valid.

    Beyond shape, this enforces the module's core invariants: buckets are
    the known set, non-negative, and sum to the makespan within
    ``TIME_EPSILON``; segments (when present) tile ``[0, makespan]``
    contiguously.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["report: not a JSON object"]
    if document.get("record") != "explain_report":
        problems.append(
            f"report: record type {document.get('record')!r} != 'explain_report'"
        )
    if document.get("schema_version") != EXPLAIN_SCHEMA_VERSION:
        problems.append(
            f"report: schema_version {document.get('schema_version')!r} != "
            f"{EXPLAIN_SCHEMA_VERSION}"
        )
    runs = document.get("runs")
    if not isinstance(runs, list):
        return problems + ["report: 'runs' must be a list"]
    for index, run in enumerate(runs):
        prefix = f"runs[{index}]"
        if not isinstance(run, dict):
            problems.append(f"{prefix}: not an object")
            continue
        for key in ("run_id", "config", "dominant"):
            if not isinstance(run.get(key), str):
                problems.append(f"{prefix}: {key!r} must be a string")
        makespan = run.get("makespan")
        if not _is_number(makespan):
            problems.append(f"{prefix}: 'makespan' must be a finite number")
            continue
        buckets = run.get("buckets")
        if not isinstance(buckets, dict):
            problems.append(f"{prefix}: 'buckets' must be an object")
            continue
        unknown = sorted(set(buckets) - set(BUCKETS))
        if unknown:
            problems.append(f"{prefix}: unknown bucket(s) {unknown}")
        total = 0.0
        for bucket, seconds in sorted(buckets.items()):
            if not _is_number(seconds) or seconds < 0:
                problems.append(
                    f"{prefix}: bucket {bucket!r} must be a non-negative number"
                )
                continue
            total += seconds
        tolerance = max(TIME_EPSILON, 64 * len(buckets) * abs(makespan) * 1e-16)
        if abs(total - makespan) > tolerance:
            problems.append(
                f"{prefix}: buckets sum to {total!r}, makespan is "
                f"{makespan!r} (|delta| > {tolerance:g})"
            )
        if run.get("dominant") not in BUCKETS:
            problems.append(
                f"{prefix}: dominant {run.get('dominant')!r} not in BUCKETS"
            )
        segments = run.get("segments", [])
        if not isinstance(segments, list):
            problems.append(f"{prefix}: 'segments' must be a list")
            continue
        cursor = 0.0
        for seg_index, segment in enumerate(segments):
            seg_prefix = f"{prefix}.segments[{seg_index}]"
            if not isinstance(segment, dict):
                problems.append(f"{seg_prefix}: not an object")
                break
            start, end = segment.get("start"), segment.get("end")
            if not _is_number(start) or not _is_number(end) or end < start:
                problems.append(f"{seg_prefix}: bad interval {start!r}..{end!r}")
                break
            if abs(start - cursor) > TIME_EPSILON:
                problems.append(
                    f"{seg_prefix}: starts at {start!r}, previous ended at "
                    f"{cursor!r} (path must tile [0, makespan])"
                )
            if segment.get("bucket") not in BUCKETS:
                problems.append(
                    f"{seg_prefix}: unknown bucket {segment.get('bucket')!r}"
                )
            cursor = end
        if segments and abs(cursor - makespan) > TIME_EPSILON:
            problems.append(
                f"{prefix}: path ends at {cursor!r}, makespan is {makespan!r}"
            )
    return problems
