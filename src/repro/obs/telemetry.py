"""Wall-clock telemetry: trace ids, lifecycle spans, snapshot formats.

Everything else in :mod:`repro.obs` is clocked on *virtual* time and must
be byte-identical across reruns; this module is the wall-specific part of
the scheduling service's live sensor plane.  Its metrics live in an
ordinary :class:`~repro.obs.probes.ProbeRegistry` that
:class:`~repro.service.telemetry.ServiceTelemetry` feeds with wall-clock
timestamps; what is wall-specific lives here:

* :func:`mint_trace_id`, :class:`SpanRecorder` + :class:`WallSpan` — a
  per-job lifecycle event stream.  A ``trace_id`` is minted at submit (a
  pure function of the job id so nothing new needs persisting), carried
  in the task envelope the service scheduler dispatches into the worker
  process, and stitched back into one trace in the parent (the
  Chrome trace itself is built by
  :func:`repro.obs.export.service_chrome_trace`);
* the formats — JSONL snapshot records (:func:`telemetry_snapshot`:
  counters and gauges as values, latency histograms as cumulative
  buckets plus p50/p95/p99) and the Prometheus text exposition format
  (:func:`prometheus_exposition`);
* in-tree validators for both (:func:`validate_exposition`,
  :func:`validate_snapshot`) — used by the tests and the CI service job.

Nothing in this module ever writes into a deterministic artifact — cell
ids, campaign stores, and queue payloads are byte-identical with
telemetry on or off (a regression test enforces this).  This module reads
the host clock; wall-clock values it produces must never flow into
trace/store/manifest sinks.
"""

from __future__ import annotations

import hashlib
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.export import TELEMETRY_SCHEMA_VERSION, _is_number
from repro.obs.probes import Counter, Gauge, ProbeRegistry

#: Default latency histogram bucket upper bounds, in seconds.  Chosen to
#: resolve both cache-hit service latencies (sub-millisecond) and real
#: simulation runs (seconds to minutes); the implicit final bucket is +Inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

#: Quantiles every histogram snapshot derives.
DERIVED_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Prometheus metric-name grammar (applied to snapshot names).
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def mint_trace_id(job_id: str) -> str:
    """The trace id of one submitted job.

    A pure function of the job id: stable across processes and restarts,
    and — crucially — it needs no new field in the queue file, so queue
    bytes are identical whether or not telemetry is enabled.
    """
    return hashlib.sha256(f"trace|{job_id}".encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Snapshots.
# ----------------------------------------------------------------------
def _snapshot_entry(instrument: Any) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "name": instrument.name,
        "labels": dict(instrument.attrs),
        "help": instrument.help_text,
    }
    if isinstance(instrument, Counter):
        entry["value"] = instrument.total
    elif isinstance(instrument, Gauge):
        entry["value"] = float(instrument.value)
    else:
        entry["buckets"] = [
            [bound, cum] for bound, cum in instrument.cumulative()[:-1]
        ]
        entry["sum"] = instrument.sum
        entry["count"] = instrument.count
        for q in DERIVED_QUANTILES:
            entry[f"p{int(q * 100)}"] = instrument.quantile(q)
    return entry


def telemetry_snapshot(
    registry: ProbeRegistry,
    at: float,
    uptime_seconds: float,
    extra: Optional[Dict[str, Any]] = None,
    final: bool = False,
) -> Dict[str, Any]:
    """One JSONL snapshot record of a wall-clock registry's state.

    Counters and gauges become ``{name, labels, help, value}``; latency
    histograms add cumulative buckets, ``sum``, ``count`` and the derived
    p50/p95/p99.  *at* and *uptime_seconds* come from the caller's clock.
    """
    record: Dict[str, Any] = {
        "record": "telemetry_snapshot",
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "at": at,
        "uptime_seconds": uptime_seconds,
        "final": final,
        "counters": [],
        "gauges": [],
        "histograms": [],
    }
    for instrument in registry.instruments():
        record[instrument.kind + "s"].append(_snapshot_entry(instrument))
    if extra:
        for key, value in extra.items():
            record[key] = value
    return record


# ----------------------------------------------------------------------
# Snapshot validation (tests + the CI service job).
# ----------------------------------------------------------------------
_SNAPSHOT_REQUIRED = (
    "record",
    "schema_version",
    "at",
    "counters",
    "gauges",
    "histograms",
)


def validate_snapshot(record: Any) -> List[str]:
    """Problems with one snapshot record; empty list means valid."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["snapshot: not a JSON object"]
    for key in _SNAPSHOT_REQUIRED:
        if key not in record:
            problems.append(f"snapshot: missing {key!r}")
    if record.get("record") != "telemetry_snapshot":
        problems.append(
            f"snapshot: record type {record.get('record')!r} != "
            "'telemetry_snapshot'"
        )
    if record.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        problems.append(
            f"snapshot: schema_version {record.get('schema_version')!r} != "
            f"{TELEMETRY_SCHEMA_VERSION}"
        )
    for section in ("counters", "gauges", "histograms"):
        entries = record.get(section)
        if not isinstance(entries, list):
            problems.append(f"snapshot: {section!r} must be a list")
            continue
        for index, entry in enumerate(entries):
            prefix = f"{section}[{index}]"
            if not isinstance(entry, dict):
                problems.append(f"{prefix}: not an object")
                continue
            name = entry.get("name")
            if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
                problems.append(f"{prefix}: invalid metric name {name!r}")
            if section in ("counters", "gauges"):
                if not _is_number(entry.get("value")):
                    problems.append(f"{prefix}: 'value' must be a number")
                continue
            buckets = entry.get("buckets")
            if not isinstance(buckets, list) or not buckets:
                problems.append(f"{prefix}: 'buckets' must be a non-empty list")
                continue
            previous_bound, previous_cum = float("-inf"), -1
            ok = True
            for pair in buckets:
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not _is_number(pair[0])
                    or not _is_number(pair[1])
                ):
                    problems.append(f"{prefix}: malformed bucket {pair!r}")
                    ok = False
                    break
                bound, cum = pair
                if bound <= previous_bound:
                    problems.append(f"{prefix}: bucket bounds not increasing")
                    ok = False
                    break
                if cum < previous_cum:
                    problems.append(f"{prefix}: bucket counts not cumulative")
                    ok = False
                    break
                previous_bound, previous_cum = bound, cum
            if ok:
                count = entry.get("count")
                if not _is_number(count):
                    problems.append(f"{prefix}: 'count' must be a number")
                elif buckets and count < buckets[-1][1]:
                    problems.append(
                        f"{prefix}: count {count} < last cumulative bucket "
                        f"{buckets[-1][1]}"
                    )
                if not _is_number(entry.get("sum")):
                    problems.append(f"{prefix}: 'sum' must be a number")
    return problems


# ----------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4).
# ----------------------------------------------------------------------
def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: Dict[str, str], value: float) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{v}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def prometheus_exposition(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot record as Prometheus text exposition format.

    Working from the snapshot (not the live registry) means the same code
    path serves live scrapes and the offline ``repro-service metrics``
    command replaying a persisted snapshot.
    """
    lines: List[str] = []
    typed: set = set()

    def _header(name: str, kind: str, help_text: str) -> None:
        if name in typed:
            return
        typed.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", []):
        _header(entry["name"], "counter", entry.get("help", ""))
        lines.append(_sample(entry["name"], entry.get("labels", {}), entry["value"]))
    for entry in snapshot.get("gauges", []):
        _header(entry["name"], "gauge", entry.get("help", ""))
        lines.append(_sample(entry["name"], entry.get("labels", {}), entry["value"]))
    for entry in snapshot.get("histograms", []):
        name = entry["name"]
        labels = entry.get("labels", {})
        _header(name, "histogram", entry.get("help", ""))
        cumulative = 0
        for bound, cum in entry.get("buckets", []):
            cumulative = cum
            lines.append(
                _sample(
                    name + "_bucket",
                    {**labels, "le": _format_value(bound)},
                    cum,
                )
            )
        count = entry.get("count", cumulative)
        lines.append(
            _sample(name + "_bucket", {**labels, "le": "+Inf"}, count)
        )
        lines.append(_sample(name + "_sum", labels, entry.get("sum", 0.0)))
        lines.append(_sample(name + "_count", labels, count))
    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"$')


def validate_exposition(text: str) -> List[str]:
    """Problems with Prometheus exposition text; empty list means valid."""
    problems: List[str] = []
    declared: Dict[str, str] = {}
    histogram_buckets: Dict[str, List[Tuple[float, float]]] = {}
    histogram_counts: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter",
                "gauge",
                "histogram",
                "summary",
                "untyped",
            ):
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            if parts[2] in declared:
                problems.append(
                    f"line {lineno}: duplicate TYPE for {parts[2]!r}"
                )
            declared[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            problems.append(f"line {lineno}: unknown comment directive")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample line")
            continue
        name = match.group("name")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in raw_labels.split(","):
                pair_match = _LABEL_PAIR_RE.match(pair.strip())
                if not pair_match:
                    problems.append(
                        f"line {lineno}: malformed label pair {pair!r}"
                    )
                    break
                labels[pair_match.group(1)] = pair_match.group(2)
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {raw_value!r}")
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                base = name[: -len(suffix)]
                break
        if base not in declared:
            problems.append(
                f"line {lineno}: sample {name!r} has no preceding TYPE"
            )
            continue
        if declared[base] == "histogram":
            series = base + "|" + ",".join(
                f"{k}={v}" for k, v in sorted(labels.items()) if k != "le"
            )
            if name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(
                        f"line {lineno}: histogram bucket without 'le'"
                    )
                    continue
                bound = float(labels["le"].replace("+Inf", "inf"))
                histogram_buckets.setdefault(series, []).append((bound, value))
            elif name.endswith("_count"):
                histogram_counts[series] = value
    for series, buckets in histogram_buckets.items():
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds):
            problems.append(f"histogram {series}: 'le' bounds out of order")
        counts = [c for _, c in buckets]
        if any(b > a for a, b in zip(counts[1:], counts)):
            problems.append(f"histogram {series}: buckets not cumulative")
        if bounds and bounds[-1] != float("inf"):
            problems.append(f"histogram {series}: missing '+Inf' bucket")
        declared_count = histogram_counts.get(series)
        if (
            declared_count is not None
            and counts
            and abs(declared_count - counts[-1]) > 0
        ):
            problems.append(
                f"histogram {series}: _count {declared_count} != +Inf bucket "
                f"{counts[-1]}"
            )
    return problems


# ----------------------------------------------------------------------
# Wall spans: the cross-process job lifecycle stream.
# ----------------------------------------------------------------------
@dataclass
class WallSpan:
    """One wall-clock lifecycle span of a traced service job.

    ``start``/``end`` are epoch seconds (``time.time``) — the one clock
    every process on the host shares, which is what lets a worker's
    ``simulate`` span land inside the parent's ``worker`` span without any
    cross-process clock negotiation.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    os_pid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> Dict[str, Any]:
        return {
            "record": "wall_span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "os_pid": self.os_pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "WallSpan":
        return cls(
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            name=record["name"],
            start=record["start"],
            end=record["end"],
            os_pid=record.get("os_pid", 0),
            attrs=dict(record.get("attrs", {})),
        )


class SpanRecorder:
    """Collects :class:`WallSpan` records for one process.

    Span ids are ``<trace_id>/p<os_pid>.<seq>`` — unique across the
    parent and every worker without coordination.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.time,
        os_pid: Optional[int] = None,
    ) -> None:
        import os

        self._clock = clock
        self.os_pid = os_pid if os_pid is not None else os.getpid()
        self.spans: List[WallSpan] = []
        self._seq = 0

    def _next_id(self, trace_id: str) -> str:
        self._seq += 1
        return f"{trace_id}/p{self.os_pid}.{self._seq}"

    def record(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> WallSpan:
        """Append one explicit span (times supplied by the caller)."""
        span = WallSpan(
            trace_id=trace_id,
            span_id=span_id if span_id is not None else self._next_id(trace_id),
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            os_pid=self.os_pid,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def mark(
        self,
        trace_id: str,
        name: str,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> WallSpan:
        """Append an instant (zero-duration) span at the current time."""
        now = self._clock()
        return self.record(trace_id, name, now, now, parent_id, **attrs)

    @contextmanager
    def span(
        self,
        trace_id: str,
        name: str,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[Dict[str, Any]]:
        """Time a block; yields the attrs dict so callers can annotate."""
        start = self._clock()
        live_attrs: Dict[str, Any] = dict(attrs)
        try:
            yield live_attrs
        finally:
            self.record(
                trace_id,
                name,
                start,
                self._clock(),
                parent_id,
                span_id=span_id,
                **live_attrs,
            )

    def extend(self, records: Sequence[Dict[str, Any]]) -> None:
        """Stitch spans recorded in another process (JSON records) in."""
        for record in records:
            self.spans.append(WallSpan.from_record(record))

    def by_trace(self) -> Dict[str, List[WallSpan]]:
        """``trace_id -> spans`` (each list in recording order)."""
        grouped: Dict[str, List[WallSpan]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped
