"""Service-side telemetry: the live sensor plane of one service pass.

:class:`ServiceTelemetry` owns one :class:`~repro.obs.probes.ProbeRegistry`
(counters/gauges/latency histograms, fed wall-clock timestamps) and one
:class:`~repro.obs.telemetry.SpanRecorder` (per-job lifecycle spans), and
plugs into the service components as a passive observer:

* :class:`~repro.service.queue.JobQueue` calls ``job_submitted`` /
  ``job_transition`` — queue depth, per-state transition rates,
  queue-wait and submit→result latency histograms, lifecycle spans;
* the worker pool of a service pass (:meth:`ServiceScheduler.run
  <repro.service.scheduler.ServiceScheduler.run>` is the only code that
  builds one, for cell and experiment jobs alike) calls ``task_started`` /
  ``task_settled`` / ``pool_rebuilt`` — worker utilization, busy seconds,
  timeout/crash/rebuild counts, per-attempt ``worker`` spans;
* :class:`~repro.service.scheduler.ServiceScheduler` calls the rest —
  cache hits/misses/stores, schedule decisions, retries, backoff, rounds.

Trace context crosses the process boundary in the task envelope: the
scheduler puts a ``telemetry`` entry (``trace_id`` + the parent ``worker``
span id, both deterministic strings) beside the job payload it hands the
pool, the cell worker (:func:`repro.service.tasks.execute_cell_record`)
returns its wall spans and virtual-time run spans under
``record["telemetry"]``, and :meth:`ServiceTelemetry.absorb_worker_records`
stitches them back in here.

Everything is strictly additive: every public hook of a disabled
instance returns before touching its registry or recorder, so it records
nothing and writes nothing, and the queue/cache/store bytes it watches
are identical with or without it (wall-clock values live only in
telemetry artifacts — ``telemetry.jsonl`` snapshots, Prometheus
expositions, trace files).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.export import service_chrome_trace
from repro.obs.probes import ProbeRegistry
from repro.obs.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    SpanRecorder,
    mint_trace_id,
    prometheus_exposition,
    telemetry_snapshot,
)

#: Telemetry snapshots append here, inside the service directory.
TELEMETRY_FILENAME = "telemetry.jsonl"

#: Histogram of time jobs spend waiting in ``queued``.
QUEUE_WAIT_METRIC = "repro_service_queue_wait_seconds"

#: Histogram of full submit→result latency.
LATENCY_METRIC = "repro_service_submit_result_latency_seconds"


class ServiceTelemetry:
    """Wall-clock metrics + lifecycle spans for one service process.

    *enabled* is the one telemetry switch (``repro-service run
    --no-telemetry``): every public hook checks it first.
    """

    def __init__(
        self,
        root: str,
        enabled: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.root = root
        self.enabled = enabled
        self._clock = clock
        self.registry = ProbeRegistry()
        self.recorder = SpanRecorder(clock=clock)
        self.started_at = clock() if enabled else 0.0
        #: job_id -> epoch the job (re-)entered ``queued``.
        self._queued_since: Dict[str, float] = {}
        #: job_id -> epoch of first submission.
        self._submitted_at: Dict[str, float] = {}
        #: job_id -> short label for trace display ("family@ranks").
        self._labels: Dict[str, str] = {}
        #: task_id -> (start epoch, expected worker span id, attempt).
        self._worker_started: Dict[str, Any] = {}
        #: task_id -> (worker span id, attempt) registered at dispatch.
        self._worker_expected: Dict[str, Any] = {}
        #: trace_id -> virtual-time run windows stitched from workers.
        self._sim_runs: Dict[str, List[Dict[str, Any]]] = {}
        self._jobs_done = 0
        #: Worst winner bottleneck seen this pass (largest dominant
        #: fraction), surfaced as the snapshot's ``bottleneck`` key and
        #: the status dashboard's top-bottleneck line.
        self._bottleneck: Optional[Dict[str, Any]] = None

    # -- paths ----------------------------------------------------------
    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.root, TELEMETRY_FILENAME)

    # -- queue observer --------------------------------------------------
    def job_submitted(self, job: Any) -> None:
        if not self.enabled:
            return
        now = job.submitted_at if job.submitted_at is not None else self._clock()
        self.registry.counter(
            "repro_service_jobs_submitted_total",
            "Jobs appended to the queue by this process.",
        ).add(now)
        trace_id = mint_trace_id(job.job_id)
        self._submitted_at[job.job_id] = now
        self._queued_since[job.job_id] = now
        payload = job.payload or {}
        if payload.get("family") is not None:
            self._labels[job.job_id] = (
                f"{payload.get('family')}@{payload.get('ranks')}"
            )
        elif payload.get("experiment") is not None:
            self._labels[job.job_id] = str(payload["experiment"])
        self.recorder.record(
            trace_id,
            "submit",
            now,
            now,
            parent_id=f"{trace_id}/root",
            job_id=job.job_id,
        )

    def job_transition(self, job: Any, state: str, detail: Any) -> None:
        if not self.enabled:
            return
        now = job.state_at if job.state_at is not None else self._clock()
        self.registry.counter(
            "repro_service_transitions_total",
            "Queue state transitions, by target state.",
            state=state,
        ).add(now)
        trace_id = mint_trace_id(job.job_id)
        root_id = f"{trace_id}/root"
        if state == "running":
            queued_since = self._queued_since.pop(job.job_id, None)
            if queued_since is not None:
                self.registry.histogram(
                    QUEUE_WAIT_METRIC,
                    "Seconds jobs spent queued before being claimed.",
                    DEFAULT_LATENCY_BUCKETS,
                ).observe(now, now - queued_since)
                self.recorder.record(
                    trace_id,
                    "queue-wait",
                    queued_since,
                    now,
                    parent_id=root_id,
                    attempt=job.attempts,
                )
        elif state == "queued":
            # Retry/release put the job back in line; the wait restarts.
            self._queued_since[job.job_id] = now
        elif state in ("done", "failed"):
            self._queued_since.pop(job.job_id, None)
            submitted = self._submitted_at.pop(job.job_id, None)
            if submitted is None:
                submitted = (
                    job.submitted_at if job.submitted_at is not None else now
                )
                # Jobs submitted by an earlier process still get a root
                # span — their latency is still submit→result.
            cache = (detail or {}).get("cache") if isinstance(detail, dict) else None
            if state == "done":
                self._jobs_done += 1
                self.registry.histogram(
                    LATENCY_METRIC,
                    "Seconds from job submission to its terminal result.",
                    DEFAULT_LATENCY_BUCKETS,
                ).observe(now, now - submitted)
            self.recorder.record(
                trace_id,
                "job",
                submitted,
                now,
                span_id=root_id,
                job_id=job.job_id,
                state=state,
                attempts=job.attempts,
                cache=cache,
            )

    # -- pool observer ---------------------------------------------------
    def task_started(self, task_id: str) -> None:
        if not self.enabled:
            return
        now = self._clock()
        self.registry.counter(
            "repro_service_tasks_started_total",
            "Tasks handed to a worker (inline or pooled).",
        ).add(now)
        span_id, attempt = self._worker_expected.get(
            task_id, (f"{mint_trace_id(task_id)}/worker.0", 0)
        )
        self._worker_started[task_id] = (now, span_id, attempt)

    def task_settled(self, outcome: Any) -> None:
        if not self.enabled:
            return
        now = self._clock()
        self.registry.counter(
            "repro_service_tasks_settled_total",
            "Task outcomes, by status.",
            status=outcome.status,
        ).add(now)
        self.registry.counter(
            "repro_service_worker_busy_seconds_total",
            "Wall seconds workers spent on settled tasks.",
        ).add(now, max(0.0, outcome.wall_seconds))
        started = self._worker_started.pop(outcome.task_id, None)
        if started is None or outcome.status == "skipped":
            return
        start_epoch, span_id, attempt = started
        trace_id = mint_trace_id(outcome.task_id)
        self.recorder.record(
            trace_id,
            "worker",
            start_epoch,
            start_epoch + max(0.0, outcome.wall_seconds),
            parent_id=f"{trace_id}/root",
            span_id=span_id,
            status=outcome.status,
            attempt=attempt,
        )

    def pool_rebuilt(self, reason: str) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_pool_rebuilds_total",
            "Executor rebuilds forced by crashes or timeouts.",
            reason=reason,
        ).add(self._clock())

    # -- scheduler hooks -------------------------------------------------
    def worker_dispatch(self, job: Any) -> Optional[Dict[str, str]]:
        """Trace context to merge into the task payload (None if off).

        The ``worker`` span id is deterministic (trace id + attempt), so
        the parent can record the span and the worker can parent its own
        ``simulate`` spans under it without passing state back and forth.
        """
        if not self.enabled:
            return None
        trace_id = mint_trace_id(job.job_id)
        span_id = f"{trace_id}/worker.{job.attempts}"
        self._worker_expected[job.job_id] = (span_id, job.attempts)
        return {"trace_id": trace_id, "parent_id": span_id}

    def schedule_decided(self, job: Any, order: int, predicted: float) -> None:
        if not self.enabled:
            return
        trace_id = mint_trace_id(job.job_id)
        self.recorder.mark(
            trace_id,
            "schedule",
            parent_id=f"{trace_id}/root",
            order=order,
            predicted_seconds=(predicted if predicted != float("inf") else None),
        )

    def stale_requeued(self, count: int) -> None:
        if not self.enabled or not count:
            return
        self.registry.counter(
            "repro_service_stale_requeued_total",
            "Stale running jobs recovered at service start.",
        ).add(self._clock(), count)

    def deadline_expired(self, job: Any) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_deadline_expired_total",
            "Jobs failed because their deadline passed before running.",
        ).add(self._clock())

    def cache_hit(self, job: Any, cell_id: str) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_cache_hits_total",
            "Cell jobs served straight from the result cache.",
        ).add(self._clock())
        trace_id = mint_trace_id(job.job_id)
        self.recorder.mark(
            trace_id,
            "cache-hit",
            parent_id=f"{trace_id}/root",
            cell_id=cell_id,
        )

    def cache_miss(self, job: Any) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_cache_misses_total",
            "Cell jobs whose content id was not cached.",
        ).add(self._clock())

    def cache_stored(self, job: Any, cell_id: str) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_cache_stores_total",
            "Fresh cell results written into the cache.",
        ).add(self._clock())
        trace_id = mint_trace_id(job.job_id)
        self.recorder.mark(
            trace_id,
            "cache-store",
            parent_id=f"{trace_id}/root",
            cell_id=cell_id,
        )

    def retry_scheduled(self, job: Any, status: str) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_retries_total",
            "Failed attempts sent back to the queue for another try.",
        ).add(self._clock())
        trace_id = mint_trace_id(job.job_id)
        self.recorder.mark(
            trace_id,
            "retry",
            parent_id=f"{trace_id}/root",
            status=status,
            attempt=job.attempts,
        )

    def backoff(self, seconds: float, attempt_round: int) -> None:
        if not self.enabled:
            return
        start = self._clock()
        self.registry.counter(
            "repro_service_backoff_seconds_total",
            "Wall seconds slept between retry rounds.",
        ).add(start, seconds)
        self.recorder.record(
            "service",
            "backoff",
            start,
            start + seconds,
            round=attempt_round,
        )

    def round_finished(self) -> None:
        if not self.enabled:
            return
        self.registry.counter(
            "repro_service_rounds_total",
            "Worker-pool dispatch rounds completed.",
        ).add(self._clock())

    def absorb_worker_records(self, job: Any, telemetry: Any) -> None:
        """Stitch one worker's spans back into this process's recorder.

        *telemetry* is ``record["telemetry"]`` as returned by
        :func:`repro.service.tasks.execute_cell_record`: wall-span records
        plus virtual-time run windows.
        """
        if not self.enabled or not isinstance(telemetry, dict):
            return
        self.recorder.extend(telemetry.get("wall_spans", []))
        trace_id = mint_trace_id(job.job_id)
        for run in telemetry.get("sim_runs", []):
            self._sim_runs.setdefault(trace_id, []).append(run)

    # -- levels + derived gauges ----------------------------------------
    def update_levels(
        self,
        counts: Optional[Dict[str, int]] = None,
        report: Any = None,
        wall_seconds: Optional[float] = None,
    ) -> None:
        """Refresh the point-in-time gauges before a snapshot."""
        if not self.enabled:
            return
        now = self._clock()
        if counts is not None:
            self.registry.gauge(
                "repro_service_queue_depth",
                "Jobs currently in the queued state.",
            ).set(now, counts.get("queued", 0))
            for state, value in sorted(counts.items()):
                self.registry.gauge(
                    "repro_service_jobs",
                    "Jobs by lifecycle state (replayed from the log).",
                    state=state,
                ).set(now, value)
        if report is not None:
            self.registry.gauge(
                "repro_service_cache_hit_rate",
                "Cache hits / lookups for the current pass.",
            ).set(now, report.cache_hit_rate)
        busy = self.registry.counter(
            "repro_service_worker_busy_seconds_total",
            "Wall seconds workers spent on settled tasks.",
        ).total
        if wall_seconds is not None and wall_seconds > 0 and report is not None:
            slots = max(1, report.jobs)
            self.registry.gauge(
                "repro_service_worker_utilization",
                "Busy worker-seconds / available worker-seconds.",
            ).set(now, min(1.0, busy / (wall_seconds * slots)))
            self.registry.gauge(
                "repro_service_jobs_per_second",
                "Jobs reaching done per wall second this pass.",
            ).set(now, self._jobs_done / wall_seconds)

    def note_bottleneck(self, key: str, bottleneck: Dict[str, Any]) -> None:
        """Record one cell's winner bottleneck (the explain attribution).

        The snapshot keeps whichever cell is most dominated by a single
        bucket — the line the status dashboard leads with.
        """
        if not self.enabled:
            return
        fraction = float(bottleneck.get("fraction", 0.0))
        if self._bottleneck is not None and fraction <= self._bottleneck.get(
            "fraction", 0.0
        ):
            return
        self._bottleneck = {"key": key, **bottleneck}

    # -- outputs ---------------------------------------------------------
    def snapshot(
        self, extra: Optional[Dict[str, Any]] = None, final: bool = False
    ) -> Dict[str, Any]:
        if self._bottleneck is not None:
            extra = dict(extra or {})
            extra.setdefault("bottleneck", self._bottleneck)
        now = self._clock() if self.enabled else 0.0
        return telemetry_snapshot(
            self.registry, now, now - self.started_at, extra=extra, final=final
        )

    def write_snapshot(
        self, extra: Optional[Dict[str, Any]] = None, final: bool = False
    ) -> Optional[Dict[str, Any]]:
        """Append one snapshot record to ``service/telemetry.jsonl``."""
        if not self.enabled:
            return None
        record = self.snapshot(extra=extra, final=final)
        os.makedirs(self.root, exist_ok=True)
        with open(self.snapshot_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def exposition(self) -> str:
        """The registry's current state in Prometheus text format."""
        return prometheus_exposition(self.snapshot())

    def trace_document(self) -> Dict[str, Any]:
        """The stitched Chrome trace of every job this process touched."""
        job_traces = []
        by_trace = self.recorder.by_trace()
        label_by_trace = {
            mint_trace_id(job_id): f"{job_id} {label}"
            for job_id, label in self._labels.items()
        }
        for trace_id, spans in by_trace.items():
            if trace_id == "service":
                continue
            job_traces.append(
                {
                    "trace_id": trace_id,
                    "label": label_by_trace.get(trace_id, trace_id),
                    "wall_spans": [span.as_record() for span in spans],
                    "sim_runs": self._sim_runs.get(trace_id, []),
                }
            )
        return service_chrome_trace(job_traces)

    def write_trace(self, path: str) -> None:
        document = self.trace_document()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True, indent=1)
            handle.write("\n")
