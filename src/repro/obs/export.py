"""Exporters: Chrome trace-event JSON, JSONL span/metric records.

The Chrome trace-event format (the ``chrome://tracing`` / Perfetto JSON
dialect) is the interchange target:

* each observed run is one *process* (``pid``), named
  ``"<workflow> [<config>]"``;
* each rank is one *thread* (``tid``) inside that process — writer ranks
  at ``tid == rank``, reader ranks offset by :data:`READER_TID_OFFSET` so
  the two components group into separate bands;
* iteration and phase spans become nested ``"X"`` (complete) events on the
  rank's thread, so Perfetto renders the per-rank flamegraph directly;
* counters and gauges become ``"C"`` (counter) events, which Perfetto
  draws as per-process counter tracks (queue depth, active flows,
  bytes-moved staircases, reader lag, ...).

Timestamps are virtual seconds converted to the format's microseconds.
All output is deterministic: events are emitted in sorted-instrument and
sorted-span order and serialized with sorted keys, so two identical runs
export byte-identical JSON (a test enforces this).

A ``"repro"`` top-level key carries what the trace viewer does not:
per-run makespans, counter totals, gauge peaks and the full provenance
manifest.  The reconciliation tests (counter totals vs. the metrics
layer) and ``python -m repro.obs diff`` read that section rather than
re-deriving state from raw events.

The scheduling service's stitched trace (:func:`service_chrome_trace`)
shares the process/thread layout: one process per job, wall-time
lifecycle spans on a ``service`` thread, and the simulated rank tracks
below it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.capture import Observation
from repro.obs.probes import Counter, Gauge
from repro.obs.spans import Span
from repro.units import MICROSECOND

#: Thread-id offset separating reader-rank tracks from writer-rank tracks.
READER_TID_OFFSET = 1000

#: ``tid`` of the wall-time service track inside each job's trace process.
SERVICE_TID = 0

#: Version of the service telemetry schema — snapshot records and the
#: stitched service trace (bumped on breaking changes).
TELEMETRY_SCHEMA_VERSION = 1

#: Thread id counter events are attached to (Perfetto scopes "C" events to
#: the process, so this never collides with a rank's slice track).
COUNTER_TID = 0

#: Event phases the validator accepts (the subset this exporter emits).
VALID_PHASES = ("X", "C", "M")

#: Metadata event names the validator accepts.
METADATA_NAMES = (
    "process_name",
    "process_sort_index",
    "thread_name",
    "thread_sort_index",
)


def _microseconds(seconds: float) -> float:
    """Virtual seconds -> trace-format microseconds."""
    return seconds / MICROSECOND


def _tid(component: str, rank: int) -> int:
    """Deterministic thread id for a (component, rank) track."""
    if component == "writer":
        base = 0
    elif component == "reader":
        base = READER_TID_OFFSET
    else:
        # Unknown components (custom tracers) get bands above the readers,
        # ordered by name so the mapping is deterministic.
        base = READER_TID_OFFSET * 2
    return base + rank


def _span_event(span: Span, pid: int) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "iteration": span.iteration,
    }
    for key in sorted(span.attributes):
        args[key] = span.attributes[key]
    return {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": _microseconds(span.start),
        "dur": _microseconds(span.duration),
        "pid": pid,
        "tid": _tid(span.component, span.rank),
        "args": args,
    }


def _counter_events(
    instrument: Any, pid: int, events: List[Dict[str, Any]]
) -> None:
    for when, value in instrument.samples:
        events.append(
            {
                "name": instrument.label,
                "ph": "C",
                "ts": _microseconds(when),
                "pid": pid,
                "tid": COUNTER_TID,
                "args": {"value": value},
            }
        )


def _metadata(pid: int, tid: int, name: str, value: Any) -> Dict[str, Any]:
    key = "name" if name.endswith("_name") else "sort_index"
    return {
        "name": name,
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "args": {key: value},
    }


def _run_summary(observation: Observation, pid: int) -> Dict[str, Any]:
    if observation.result is None or observation.manifest is None:
        raise SimulationError(
            "cannot export an observation before its run finalized"
        )
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    for instrument in observation.probes.instruments():
        if isinstance(instrument, Counter):
            counters[instrument.label] = instrument.total
        elif isinstance(instrument, Gauge):
            gauges[instrument.label] = {
                "last": instrument.value,
                "peak": instrument.peak,
            }
    result = observation.result
    return {
        "pid": pid,
        "run_id": observation.run_id,
        "makespan": result.makespan,
        "writer_runtime": result.writer_runtime,
        "reader_runtime": result.reader_runtime,
        "bytes_written": result.bytes_written,
        "bytes_read": result.bytes_read,
        "counters": counters,
        "gauges": gauges,
        "manifest": observation.manifest.as_dict(),
    }


def chrome_trace(observations: Sequence[Observation]) -> Dict[str, Any]:
    """Build the Chrome trace-event document for one or more observed runs.

    Pass the finalized observations of a capture session (or a single-item
    list).  Each run becomes its own process; loading the file in Perfetto
    shows one process group per (workflow, configuration).
    """
    if isinstance(observations, Observation):
        observations = [observations]
    events: List[Dict[str, Any]] = []
    runs: List[Dict[str, Any]] = []
    for index, observation in enumerate(observations):
        pid = index + 1
        runs.append(_run_summary(observation, pid))
        manifest = observation.manifest
        events.append(
            _metadata(
                pid, 0, "process_name", f"{manifest.workflow} [{manifest.config}]"
            )
        )
        events.append(_metadata(pid, 0, "process_sort_index", index))
        named_tids = set()
        spans = observation.spans()
        for span in spans:
            if span.category in ("run",):
                continue
            tid = _tid(span.component, span.rank)
            if tid not in named_tids:
                named_tids.add(tid)
                events.append(
                    _metadata(
                        pid, tid, "thread_name", f"{span.component} {span.rank}"
                    )
                )
                events.append(_metadata(pid, tid, "thread_sort_index", tid))
            if span.category == "rank":
                continue  # the thread itself is the rank's track
            events.append(_span_event(span, pid))
        for instrument in observation.probes.instruments():
            if isinstance(instrument, (Counter, Gauge)):
                _counter_events(instrument, pid, events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {
            "schema_version": runs[0]["manifest"]["schema_version"] if runs else 0,
            "runs": runs,
        },
    }


def service_chrome_trace(
    job_traces: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """One Chrome trace document for a traced service run.

    *job_traces* carries one entry per traced job::

        {"trace_id": ..., "label": "job-0000-... micro-2k@8",
         "wall_spans": [<WallSpan record>, ...],
         "sim_runs": [{"run_id": ..., "makespan": ...,
                       "start": <epoch>, "end": <epoch>,
                       "spans": [<span_records row>, ...]},
                      ...]}

    Each job becomes one trace process: its wall-time lifecycle spans
    (submit → queue-wait → worker → result) render on the ``service``
    thread, and each simulated run's virtual-time spans are linearly
    rescaled into the run's measured wall window — so the simulation
    flamegraph nests *under* the ``simulate`` span that produced it, on
    one coherent wall-clock timeline.  Every event carries its
    ``trace_id`` in ``args``, which is what links spans recorded in
    different processes.
    """
    events: List[Dict[str, Any]] = []
    traced_jobs: List[Dict[str, Any]] = []
    starts = [
        span["start"]
        for trace in job_traces
        for span in trace.get("wall_spans", [])
    ]
    t0 = min(starts) if starts else 0.0

    def _us(epoch: float) -> float:
        return max(0.0, _microseconds(epoch - t0))

    for index, trace in enumerate(sorted(
        job_traces, key=lambda item: item.get("trace_id", "")
    )):
        pid = index + 1
        trace_id = trace.get("trace_id", "")
        events.append(
            _metadata(pid, 0, "process_name", trace.get("label", trace_id))
        )
        events.append(_metadata(pid, 0, "process_sort_index", index))
        events.append(_metadata(pid, SERVICE_TID, "thread_name", "service"))
        events.append(
            _metadata(pid, SERVICE_TID, "thread_sort_index", SERVICE_TID)
        )
        wall_spans = trace.get("wall_spans", [])
        for record in wall_spans:
            events.append(
                {
                    "name": record["name"],
                    "cat": "service",
                    "ph": "X",
                    "ts": _us(record["start"]),
                    "dur": _microseconds(max(0.0, record["end"] - record["start"])),
                    "pid": pid,
                    "tid": SERVICE_TID,
                    "args": {
                        "trace_id": trace_id,
                        "span_id": record["span_id"],
                        "parent_id": record.get("parent_id"),
                        "os_pid": record.get("os_pid", 0),
                        **record.get("attrs", {}),
                    },
                }
            )
        named_tids = {SERVICE_TID}
        sim_spans_total = 0
        for run in trace.get("sim_runs", []):
            window_start = run["start"]
            window = max(0.0, run["end"] - run["start"])
            makespan = max(float(run.get("makespan") or 0.0), 1e-12)
            scale = window / makespan
            for span in run.get("spans", []):
                if span.get("category") in ("run", "rank"):
                    continue
                # +1 keeps every simulated track clear of the service track.
                tid = _tid(span.get("component", ""), span.get("rank", 0)) + 1
                if tid not in named_tids:
                    named_tids.add(tid)
                    events.append(
                        _metadata(
                            pid,
                            tid,
                            "thread_name",
                            f"sim {span.get('component', '?')} "
                            f"{span.get('rank', 0)}",
                        )
                    )
                    events.append(_metadata(pid, tid, "thread_sort_index", tid))
                events.append(
                    {
                        "name": span["name"],
                        "cat": "sim-" + span.get("category", "phase"),
                        "ph": "X",
                        "ts": _us(window_start + span["start"] * scale),
                        "dur": _microseconds(
                            max(0.0, span.get("duration", 0.0)) * scale
                        ),
                        "pid": pid,
                        "tid": tid,
                        "args": {
                            "trace_id": trace_id,
                            "run_id": run.get("run_id"),
                            "virtual_start": span["start"],
                            "virtual_end": span["end"],
                            "iteration": span.get("iteration", -1),
                        },
                    }
                )
                sim_spans_total += 1
        traced_jobs.append(
            {
                "pid": pid,
                "trace_id": trace_id,
                "label": trace.get("label", trace_id),
                "wall_spans": len(wall_spans),
                "sim_runs": len(trace.get("sim_runs", [])),
                "sim_spans": sim_spans_total,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "runs": [],
            "service": {
                "epoch_origin": t0,
                "jobs": traced_jobs,
            },
        },
    }


def to_json(document: Any) -> str:
    """Deterministic serialization (sorted keys, stable layout)."""
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# JSONL record dumps (spans and metrics as flat, greppable streams).
# ----------------------------------------------------------------------
def span_records(observations: Sequence[Observation]) -> List[Dict[str, Any]]:
    """One flat dict per span across all runs (for the JSONL dump)."""
    if isinstance(observations, Observation):
        observations = [observations]
    records = []
    for observation in observations:
        for span in observation.spans():
            records.append(
                {
                    "run_id": observation.run_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "category": span.category,
                    "component": span.component,
                    "rank": span.rank,
                    "iteration": span.iteration,
                    "start": span.start,
                    "end": span.end,
                    "duration": span.duration,
                    "attributes": dict(span.attributes),
                }
            )
    return records


def metrics_records(observations: Sequence[Observation]) -> List[Dict[str, Any]]:
    """One flat dict per instrument across all runs (for the JSONL dump)."""
    if isinstance(observations, Observation):
        observations = [observations]
    records = []
    for observation in observations:
        for data in observation.probes.as_records():
            record = {"run_id": observation.run_id}
            record.update(data)
            records.append(record)
    return records


def to_jsonl(records: Iterable[Dict[str, Any]]) -> str:
    """Deterministic JSONL serialization of flat records."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


# ----------------------------------------------------------------------
# Schema validation.
# ----------------------------------------------------------------------
def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_common(event: Any, index: int, problems: List[str]) -> bool:
    prefix = f"traceEvents[{index}]"
    if not isinstance(event, dict):
        problems.append(f"{prefix}: not an object")
        return False
    ok = True
    for field_name in ("name", "ph"):
        if not isinstance(event.get(field_name), str) or not event.get(field_name):
            problems.append(f"{prefix}: missing/empty {field_name!r}")
            ok = False
    for field_name in ("pid", "tid"):
        if not isinstance(event.get(field_name), int):
            problems.append(f"{prefix}: {field_name!r} must be an integer")
            ok = False
    if not _is_number(event.get("ts")) or event.get("ts", -1) < 0:
        problems.append(f"{prefix}: 'ts' must be a number >= 0")
        ok = False
    return ok


def validate_chrome_trace(document: Any) -> List[str]:
    """Check *document* against the trace-event schema this package emits.

    Returns a list of human-readable problems; an empty list means the
    document is valid.  Used by the tests, the CLI ``validate`` command and
    the CI artifact step.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["top level: expected a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["top level: 'traceEvents' must be a list"]
    for index, event in enumerate(events):
        if not _check_common(event, index, problems):
            continue
        prefix = f"traceEvents[{index}]"
        phase = event["ph"]
        if phase not in VALID_PHASES:
            problems.append(f"{prefix}: unknown phase {phase!r}")
            continue
        if phase == "X":
            if not _is_number(event.get("dur")) or event.get("dur", -1) < 0:
                problems.append(f"{prefix}: 'X' event needs 'dur' >= 0")
        elif phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{prefix}: 'C' event needs non-empty 'args'")
            elif not all(_is_number(v) for v in args.values()):
                problems.append(f"{prefix}: 'C' event args must be numeric")
        elif phase == "M":
            if event["name"] not in METADATA_NAMES:
                problems.append(
                    f"{prefix}: unknown metadata event {event['name']!r}"
                )
            if not isinstance(event.get("args"), dict):
                problems.append(f"{prefix}: 'M' event needs 'args'")
    repro = document.get("repro")
    if repro is not None:
        if not isinstance(repro, dict) or not isinstance(repro.get("runs"), list):
            problems.append("'repro' section must be an object with a 'runs' list")
        else:
            for index, run in enumerate(repro["runs"]):
                if not isinstance(run, dict):
                    problems.append(f"repro.runs[{index}]: not an object")
                    continue
                for field_name in ("run_id", "makespan", "manifest"):
                    if field_name not in run:
                        problems.append(
                            f"repro.runs[{index}]: missing {field_name!r}"
                        )
    return problems


def trace_makespans(document: Dict[str, Any]) -> Dict[str, float]:
    """``run_id -> makespan`` from an exported trace document."""
    repro: Optional[Dict[str, Any]] = document.get("repro")
    if not repro:
        return {}
    return {run["run_id"]: run["makespan"] for run in repro.get("runs", [])}
