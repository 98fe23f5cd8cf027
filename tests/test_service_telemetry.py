"""Service telemetry: lifecycle spans, stitched traces, byte-identity."""

import json
import os
from types import SimpleNamespace

import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.store import CampaignStore
from repro.obs.telemetry import (
    mint_trace_id,
    validate_exposition,
    validate_snapshot,
)
from repro.service.pool import TaskOutcome
from repro.service.queue import JobQueue
from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler
from repro.service.telemetry import (
    LATENCY_METRIC,
    TELEMETRY_FILENAME,
    ServiceTelemetry,
)


def _run_micro(root, enabled=True, jobs=1):
    telemetry = ServiceTelemetry(root, enabled=enabled)
    scheduler = ServiceScheduler(root=root, jobs=jobs, telemetry=telemetry)
    scheduler.submit_suite(suite="micro")
    report = scheduler.run()
    assert report.failed == 0
    return scheduler, telemetry, report


# ----------------------------------------------------------------------
# Lifecycle instrumentation end to end (serial path).
# ----------------------------------------------------------------------
def test_run_produces_metrics_spans_and_snapshots(tmp_path):
    root = str(tmp_path / "svc")
    scheduler, telemetry, report = _run_micro(root)
    assert report.executed == 2

    submitted = telemetry.registry.counter(
        "repro_service_jobs_submitted_total"
    )
    assert submitted.total == 2
    misses = telemetry.registry.counter("repro_service_cache_misses_total")
    assert misses.total == 2
    latency = telemetry.registry.histogram(LATENCY_METRIC)
    assert latency.count == 2
    assert latency.quantile(0.99) >= latency.quantile(0.5) >= 0.0

    by_trace = telemetry.recorder.by_trace()
    job_ids = [job.job_id for job in scheduler.queue.load()]
    assert set(by_trace) == {mint_trace_id(job_id) for job_id in job_ids}
    for trace_id, spans in by_trace.items():
        names = {span.name for span in spans}
        assert {
            "submit", "schedule", "queue-wait", "worker", "simulate",
            "cache-store", "job",
        } <= names
        root_span = next(span for span in spans if span.name == "job")
        assert root_span.span_id == f"{trace_id}/root"
        worker = next(span for span in spans if span.name == "worker")
        assert worker.parent_id == f"{trace_id}/root"
        simulate = next(span for span in spans if span.name == "simulate")
        # The worker's simulate span parents under the deterministic
        # worker span id — stitched without any cross-process round trip.
        assert simulate.parent_id == worker.span_id
        assert root_span.start <= worker.start <= worker.end <= (
            root_span.end + 1e-6
        )

    # Per-round snapshots plus the final one, all valid, appended JSONL.
    assert os.path.exists(telemetry.snapshot_path)
    with open(telemetry.snapshot_path, "r", encoding="utf-8") as handle:
        snapshots = [json.loads(line) for line in handle if line.strip()]
    assert len(snapshots) >= 2
    for snapshot in snapshots:
        assert validate_snapshot(snapshot) == []
    assert snapshots[-1]["final"] is True
    assert snapshots[-1]["report"]["record"] == "service_run"
    assert not any(snapshot["final"] for snapshot in snapshots[:-1])


def test_exposition_of_live_run_validates(tmp_path):
    root = str(tmp_path / "svc")
    _, telemetry, _ = _run_micro(root)
    text = telemetry.exposition()
    assert validate_exposition(text) == []
    assert "# TYPE repro_service_jobs_submitted_total counter" in text
    assert 'repro_service_transitions_total{state="done"} 2' in text
    assert "repro_service_submit_result_latency_seconds_bucket" in text


def test_trace_document_nests_sim_spans_inside_wall_windows(tmp_path):
    root = str(tmp_path / "svc")
    scheduler, telemetry, _ = _run_micro(root)
    document = telemetry.trace_document()
    assert validate_chrome_trace(document) == []
    jobs = document["repro"]["service"]["jobs"]
    assert len(jobs) == 2
    assert all(job["sim_spans"] > 0 for job in jobs)
    events = document["traceEvents"]
    for job in jobs:
        pid = job["pid"]
        # One simulate wall span per observed configuration; sim events
        # carry the run_id linking them to their own wall window.
        windows = {
            e["args"]["run_id"]: e for e in events
            if e.get("pid") == pid and e.get("name") == "simulate"
        }
        assert windows
        sim_events = [
            e for e in events
            if e.get("pid") == pid
            and str(e.get("cat", "")).startswith("sim-")
        ]
        assert sim_events
        for event in sim_events:
            # Virtual-time spans are rescaled into the measured simulate
            # wall window: one coherent timeline per job.
            simulate = windows[event["args"]["run_id"]]
            # 1 us slack: rescaling virtual seconds into an epoch-anchored
            # microsecond timeline rounds in the last float digits.
            assert event["ts"] >= simulate["ts"] - 1.0
            assert event["ts"] + event["dur"] <= (
                simulate["ts"] + simulate["dur"] + 1.0
            )
            assert event["args"]["trace_id"] == job["trace_id"]
        # Wall-time service spans sit on the dedicated service track.
        assert all(
            e["tid"] == 0 for e in events
            if e.get("pid") == pid and e.get("cat") == "service"
        )


def test_cache_hits_traced_on_second_pass(tmp_path):
    root = str(tmp_path / "svc")
    _run_micro(root)
    telemetry = ServiceTelemetry(root, enabled=True)
    scheduler = ServiceScheduler(root=root, telemetry=telemetry)
    scheduler.submit_suite(suite="micro")
    report = scheduler.run()
    assert report.cache_hits == 2
    hits = telemetry.registry.counter("repro_service_cache_hits_total")
    assert hits.total == 2
    span_names = {span.name for span in telemetry.recorder.spans}
    assert "cache-hit" in span_names
    assert "simulate" not in span_names
    rate = telemetry.registry.gauge("repro_service_cache_hit_rate")
    assert rate.value == 1.0


def test_parallel_workers_stitch_spans_across_processes(tmp_path):
    root = str(tmp_path / "svc")
    scheduler, telemetry, report = _run_micro(root, jobs=2)
    assert report.executed == 2
    simulate = [
        span for span in telemetry.recorder.spans if span.name == "simulate"
    ]
    # 2 cells x 4 Table I configurations, each observed in a worker.
    assert len(simulate) == 8
    parent_pid = telemetry.recorder.os_pid
    # The simulate spans were recorded inside the worker processes.
    assert all(span.os_pid != parent_pid for span in simulate)
    document = telemetry.trace_document()
    assert validate_chrome_trace(document) == []
    assert all(
        job["sim_spans"] > 0 for job in document["repro"]["service"]["jobs"]
    )


# ----------------------------------------------------------------------
# The additive guarantee: telemetry on vs. off changes no artifact bytes.
# ----------------------------------------------------------------------
def _stripped_store_lines(scheduler):
    """Store records minus the 'host' block (wall clock lives there)."""
    lines = []
    with open(scheduler.store.path(RESULTS_CAMPAIGN), encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("host", None)
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
    return lines


def _stripped_queue_lines(root):
    """Queue log minus wall-clock fields (present with telemetry on or off)."""
    lines = []
    with open(JobQueue(root).path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("at", None)
            record.pop("submitted_at", None)
            if isinstance(record.get("detail"), dict):
                record["detail"].pop("wall_seconds", None)
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
    return lines


def test_artifacts_byte_identical_with_telemetry_on_and_off(tmp_path):
    results = {}
    for enabled in (True, False):
        root = str(tmp_path / ("on" if enabled else "off"))
        scheduler, telemetry, report = _run_micro(root, enabled=enabled)
        store = CampaignStore(scheduler.store.root)
        results[enabled] = {
            "store": _stripped_store_lines(scheduler),
            "queue": _stripped_queue_lines(root),
            "cell_ids": sorted(
                cell.cell_id for cell in store.read(RESULTS_CAMPAIGN).cells
            ),
            "cache_ids": sorted(scheduler.cache.list_ids()),
        }
        if not enabled:
            # Disabled telemetry writes nothing at all.
            assert not os.path.exists(
                os.path.join(root, TELEMETRY_FILENAME)
            )
            assert telemetry.recorder.spans == []
            assert telemetry.registry.instruments() == []
    # Deterministic artifacts — store payloads, content-addressed cell
    # ids, cache keys, queue transitions — are identical either way:
    # wall-clock values never leak out of the telemetry plane.
    assert results[True]["store"] == results[False]["store"]
    assert results[True]["queue"] == results[False]["queue"]
    assert results[True]["cell_ids"] == results[False]["cell_ids"]
    assert results[True]["cache_ids"] == results[False]["cache_ids"]


def test_disabled_telemetry_hooks_are_inert(tmp_path):
    root = str(tmp_path / "svc")
    telemetry = ServiceTelemetry(root, enabled=False)
    assert telemetry.write_snapshot(final=True) is None
    assert telemetry.exposition() == ""
    scheduler = ServiceScheduler(root=root, telemetry=telemetry)
    job = scheduler.submit_suite(suite="micro")[0]
    assert telemetry.worker_dispatch(job) is None
    # The dispatch payload therefore never grows a _telemetry key, so
    # worker inputs are byte-identical too.
    telemetry.job_submitted(job)
    telemetry.job_transition(job, "running", None)
    telemetry.job_transition(job, "done", {"cache": "hit"})
    telemetry.task_started(job.job_id)
    telemetry.task_settled(TaskOutcome(job.job_id, "done", wall_seconds=1.0))
    telemetry.pool_rebuilt("crash")
    telemetry.schedule_decided(job, 0, 1.0)
    telemetry.stale_requeued(2)
    telemetry.deadline_expired(job)
    telemetry.cache_hit(job, "abc")
    telemetry.cache_miss(job)
    telemetry.cache_stored(job, "abc")
    telemetry.retry_scheduled(job, "error")
    telemetry.backoff(0.5, 1)
    telemetry.round_finished()
    telemetry.update_levels(
        counts={"queued": 1},
        report=SimpleNamespace(cache_hit_rate=1.0, jobs=1),
        wall_seconds=1.0,
    )
    telemetry.note_bottleneck("micro-2k@8", {"fraction": 0.9})
    telemetry.absorb_worker_records(
        job, {"wall_spans": [], "sim_runs": [{"run_id": "r"}]}
    )
    assert telemetry.write_snapshot(final=True) is None
    assert telemetry.registry.instruments() == []
    assert telemetry.recorder.spans == []
    assert not os.path.exists(os.path.join(root, TELEMETRY_FILENAME))


def test_default_scheduler_has_disabled_telemetry(tmp_path):
    scheduler = ServiceScheduler(root=str(tmp_path / "svc"))
    assert scheduler.telemetry.enabled is False


# ----------------------------------------------------------------------
# The wall formats, pinned byte for byte.
# ----------------------------------------------------------------------
class FakeClock:
    """A controllable wall clock so the pinned formats are deterministic."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def _drive_synthetic_jobs(root):
    """Three jobs on a fake clock: a cache miss, a cache hit, a retry."""
    clock = FakeClock()
    telemetry = ServiceTelemetry(root, clock=clock)

    def job(job_id):
        return SimpleNamespace(
            job_id=job_id, submitted_at=1000.0, state_at=1000.0, attempts=0,
            payload={"family": "micro-2k", "ranks": 8},
        )

    def move(job, state, at, detail=None):
        job.state_at = at
        telemetry.job_transition(job, state, detail)

    def attempt(job, status, wall_seconds):
        telemetry.task_started(job.job_id)
        telemetry.task_settled(
            TaskOutcome(job.job_id, status, wall_seconds=wall_seconds)
        )

    miss, hit, retried = job("job-a"), job("job-b"), job("job-c")
    for each in (miss, hit, retried):
        telemetry.job_submitted(each)
    telemetry.cache_hit(hit, "cell-b")
    move(hit, "done", 1000.25, {"cache": "hit"})
    for each in (miss, retried):
        telemetry.cache_miss(each)
    move(miss, "running", 1000.5)
    attempt(miss, "done", 2.0)
    telemetry.cache_stored(miss, "cell-a")
    move(miss, "done", 1003.0, {"cache": "stored"})
    move(retried, "running", 1001.0)
    retried.attempts = 1
    attempt(retried, "error", 0.5)
    telemetry.retry_scheduled(retried, "error")
    move(retried, "queued", 1001.5)
    move(retried, "running", 1002.0)
    attempt(retried, "done", 1.0)
    move(retried, "done", 1003.5, {"cache": "stored"})
    telemetry.round_finished()
    telemetry.update_levels(
        counts={"done": 3},
        report=SimpleNamespace(cache_hit_rate=0.5, jobs=1),
        wall_seconds=4.0,
    )
    clock.now = 1004.0
    return telemetry


EXPECTED_SNAPSHOT = """\
{"at": 1004.0, "final": true, "record": "telemetry_snapshot", "schema_version": 1, "uptime_seconds": 4.0}
{"help": "Cell jobs served straight from the result cache.", "labels": {}, "name": "repro_service_cache_hits_total", "value": 1.0}
{"help": "Cell jobs whose content id was not cached.", "labels": {}, "name": "repro_service_cache_misses_total", "value": 2.0}
{"help": "Fresh cell results written into the cache.", "labels": {}, "name": "repro_service_cache_stores_total", "value": 1.0}
{"help": "Jobs appended to the queue by this process.", "labels": {}, "name": "repro_service_jobs_submitted_total", "value": 3.0}
{"help": "Failed attempts sent back to the queue for another try.", "labels": {}, "name": "repro_service_retries_total", "value": 1.0}
{"help": "Worker-pool dispatch rounds completed.", "labels": {}, "name": "repro_service_rounds_total", "value": 1.0}
{"help": "Task outcomes, by status.", "labels": {"status": "done"}, "name": "repro_service_tasks_settled_total", "value": 2.0}
{"help": "Task outcomes, by status.", "labels": {"status": "error"}, "name": "repro_service_tasks_settled_total", "value": 1.0}
{"help": "Tasks handed to a worker (inline or pooled).", "labels": {}, "name": "repro_service_tasks_started_total", "value": 3.0}
{"help": "Queue state transitions, by target state.", "labels": {"state": "done"}, "name": "repro_service_transitions_total", "value": 3.0}
{"help": "Queue state transitions, by target state.", "labels": {"state": "queued"}, "name": "repro_service_transitions_total", "value": 1.0}
{"help": "Queue state transitions, by target state.", "labels": {"state": "running"}, "name": "repro_service_transitions_total", "value": 3.0}
{"help": "Wall seconds workers spent on settled tasks.", "labels": {}, "name": "repro_service_worker_busy_seconds_total", "value": 3.5}
{"help": "Cache hits / lookups for the current pass.", "labels": {}, "name": "repro_service_cache_hit_rate", "value": 0.5}
{"help": "Jobs by lifecycle state (replayed from the log).", "labels": {"state": "done"}, "name": "repro_service_jobs", "value": 3.0}
{"help": "Jobs reaching done per wall second this pass.", "labels": {}, "name": "repro_service_jobs_per_second", "value": 0.75}
{"help": "Jobs currently in the queued state.", "labels": {}, "name": "repro_service_queue_depth", "value": 0.0}
{"help": "Busy worker-seconds / available worker-seconds.", "labels": {}, "name": "repro_service_worker_utilization", "value": 0.875}
{"buckets": [[0.001, 0], [0.0025, 0], [0.005, 0], [0.01, 0], [0.025, 0], [0.05, 0], [0.1, 0], [0.25, 0], [0.5, 2], [1.0, 3], [2.5, 3], [5.0, 3], [10.0, 3], [30.0, 3], [60.0, 3], [120.0, 3], [300.0, 3]], "count": 3, "help": "Seconds jobs spent queued before being claimed.", "labels": {}, "name": "repro_service_queue_wait_seconds", "p50": 0.4375, "p95": 0.9249999999999998, "p99": 0.9849999999999999, "sum": 2.0}
{"buckets": [[0.001, 0], [0.0025, 0], [0.005, 0], [0.01, 0], [0.025, 0], [0.05, 0], [0.1, 0], [0.25, 1], [0.5, 1], [1.0, 1], [2.5, 1], [5.0, 3], [10.0, 3], [30.0, 3], [60.0, 3], [120.0, 3], [300.0, 3]], "count": 3, "help": "Seconds from job submission to its terminal result.", "labels": {}, "name": "repro_service_submit_result_latency_seconds", "p50": 3.125, "p95": 4.8125, "p99": 4.9624999999999995, "sum": 6.75}
"""

EXPECTED_EXPOSITION = """\
# HELP repro_service_cache_hits_total Cell jobs served straight from the result cache.
# TYPE repro_service_cache_hits_total counter
repro_service_cache_hits_total 1
# HELP repro_service_cache_misses_total Cell jobs whose content id was not cached.
# TYPE repro_service_cache_misses_total counter
repro_service_cache_misses_total 2
# HELP repro_service_cache_stores_total Fresh cell results written into the cache.
# TYPE repro_service_cache_stores_total counter
repro_service_cache_stores_total 1
# HELP repro_service_jobs_submitted_total Jobs appended to the queue by this process.
# TYPE repro_service_jobs_submitted_total counter
repro_service_jobs_submitted_total 3
# HELP repro_service_retries_total Failed attempts sent back to the queue for another try.
# TYPE repro_service_retries_total counter
repro_service_retries_total 1
# HELP repro_service_rounds_total Worker-pool dispatch rounds completed.
# TYPE repro_service_rounds_total counter
repro_service_rounds_total 1
# HELP repro_service_tasks_settled_total Task outcomes, by status.
# TYPE repro_service_tasks_settled_total counter
repro_service_tasks_settled_total{status="done"} 2
repro_service_tasks_settled_total{status="error"} 1
# HELP repro_service_tasks_started_total Tasks handed to a worker (inline or pooled).
# TYPE repro_service_tasks_started_total counter
repro_service_tasks_started_total 3
# HELP repro_service_transitions_total Queue state transitions, by target state.
# TYPE repro_service_transitions_total counter
repro_service_transitions_total{state="done"} 3
repro_service_transitions_total{state="queued"} 1
repro_service_transitions_total{state="running"} 3
# HELP repro_service_worker_busy_seconds_total Wall seconds workers spent on settled tasks.
# TYPE repro_service_worker_busy_seconds_total counter
repro_service_worker_busy_seconds_total 3.5
# HELP repro_service_cache_hit_rate Cache hits / lookups for the current pass.
# TYPE repro_service_cache_hit_rate gauge
repro_service_cache_hit_rate 0.5
# HELP repro_service_jobs Jobs by lifecycle state (replayed from the log).
# TYPE repro_service_jobs gauge
repro_service_jobs{state="done"} 3
# HELP repro_service_jobs_per_second Jobs reaching done per wall second this pass.
# TYPE repro_service_jobs_per_second gauge
repro_service_jobs_per_second 0.75
# HELP repro_service_queue_depth Jobs currently in the queued state.
# TYPE repro_service_queue_depth gauge
repro_service_queue_depth 0
# HELP repro_service_worker_utilization Busy worker-seconds / available worker-seconds.
# TYPE repro_service_worker_utilization gauge
repro_service_worker_utilization 0.875
# HELP repro_service_queue_wait_seconds Seconds jobs spent queued before being claimed.
# TYPE repro_service_queue_wait_seconds histogram
repro_service_queue_wait_seconds_bucket{le="0.001"} 0
repro_service_queue_wait_seconds_bucket{le="0.0025"} 0
repro_service_queue_wait_seconds_bucket{le="0.005"} 0
repro_service_queue_wait_seconds_bucket{le="0.01"} 0
repro_service_queue_wait_seconds_bucket{le="0.025"} 0
repro_service_queue_wait_seconds_bucket{le="0.05"} 0
repro_service_queue_wait_seconds_bucket{le="0.1"} 0
repro_service_queue_wait_seconds_bucket{le="0.25"} 0
repro_service_queue_wait_seconds_bucket{le="0.5"} 2
repro_service_queue_wait_seconds_bucket{le="1"} 3
repro_service_queue_wait_seconds_bucket{le="2.5"} 3
repro_service_queue_wait_seconds_bucket{le="5"} 3
repro_service_queue_wait_seconds_bucket{le="10"} 3
repro_service_queue_wait_seconds_bucket{le="30"} 3
repro_service_queue_wait_seconds_bucket{le="60"} 3
repro_service_queue_wait_seconds_bucket{le="120"} 3
repro_service_queue_wait_seconds_bucket{le="300"} 3
repro_service_queue_wait_seconds_bucket{le="+Inf"} 3
repro_service_queue_wait_seconds_sum 2
repro_service_queue_wait_seconds_count 3
# HELP repro_service_submit_result_latency_seconds Seconds from job submission to its terminal result.
# TYPE repro_service_submit_result_latency_seconds histogram
repro_service_submit_result_latency_seconds_bucket{le="0.001"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.0025"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.005"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.01"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.025"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.05"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.1"} 0
repro_service_submit_result_latency_seconds_bucket{le="0.25"} 1
repro_service_submit_result_latency_seconds_bucket{le="0.5"} 1
repro_service_submit_result_latency_seconds_bucket{le="1"} 1
repro_service_submit_result_latency_seconds_bucket{le="2.5"} 1
repro_service_submit_result_latency_seconds_bucket{le="5"} 3
repro_service_submit_result_latency_seconds_bucket{le="10"} 3
repro_service_submit_result_latency_seconds_bucket{le="30"} 3
repro_service_submit_result_latency_seconds_bucket{le="60"} 3
repro_service_submit_result_latency_seconds_bucket{le="120"} 3
repro_service_submit_result_latency_seconds_bucket{le="300"} 3
repro_service_submit_result_latency_seconds_bucket{le="+Inf"} 3
repro_service_submit_result_latency_seconds_sum 6.75
repro_service_submit_result_latency_seconds_count 3
"""


def _snapshot_lines(snapshot):
    """The snapshot as JSON lines: the header, then one line per entry."""
    sections = ("counters", "gauges", "histograms")
    header = {k: v for k, v in snapshot.items() if k not in sections}
    lines = [json.dumps(header, sort_keys=True)]
    for section in sections:
        lines += [json.dumps(entry, sort_keys=True) for entry in snapshot[section]]
    return "\n".join(lines) + "\n"


def test_wall_formats_are_pinned(tmp_path):
    telemetry = _drive_synthetic_jobs(str(tmp_path / "svc"))
    snapshot = telemetry.snapshot(final=True)
    assert _snapshot_lines(snapshot) == EXPECTED_SNAPSHOT
    assert telemetry.exposition() == EXPECTED_EXPOSITION
    assert validate_snapshot(snapshot) == []
    assert validate_exposition(EXPECTED_EXPOSITION) == []


# ----------------------------------------------------------------------
# Queue operator views feeding `repro-service status`.
# ----------------------------------------------------------------------
def test_stale_running_and_attempts_histogram(tmp_path):
    root = str(tmp_path / "svc")
    scheduler = ServiceScheduler(root=root)
    scheduler.submit_suite(suite="micro")
    queue = JobQueue(root)
    jobs = queue.queued()
    queue.claim(jobs[0])
    fresh = JobQueue(root)
    stale = fresh.stale_running()
    assert len(stale) == 1
    assert stale[0]["job_id"] == jobs[0].job_id
    assert stale[0]["age_seconds"] is not None
    assert stale[0]["age_seconds"] >= 0.0
    histogram = fresh.attempts_histogram()
    assert histogram == {0: 1, 1: 1}


def test_worker_utilization_and_rate_gauges(tmp_path):
    root = str(tmp_path / "svc")
    _, telemetry, _ = _run_micro(root)
    utilization = telemetry.registry.gauge("repro_service_worker_utilization")
    assert 0.0 < utilization.value <= 1.0
    rate = telemetry.registry.gauge("repro_service_jobs_per_second")
    assert rate.value > 0.0
    with pytest.raises(StopIteration):
        # No unexpected unlabelled gauge families beyond the known set.
        next(
            g for g in telemetry.registry.instruments()
            if g.kind == "gauge" and not g.attrs and g.name not in (
                "repro_service_cache_hit_rate",
                "repro_service_jobs_per_second",
                "repro_service_queue_depth",
                "repro_service_worker_utilization",
            )
        )
