"""Wall-clock telemetry core: instruments, snapshots, spans, traces."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs.export import service_chrome_trace, validate_chrome_trace
from repro.obs.probes import LatencyHistogram, ProbeRegistry
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    SpanRecorder,
    WallSpan,
    mint_trace_id,
    telemetry_snapshot,
    validate_snapshot,
)


class FakeClock:
    """A controllable wall clock so telemetry tests are deterministic."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds
        return self.now


# ----------------------------------------------------------------------
# Trace ids.
# ----------------------------------------------------------------------
def test_mint_trace_id_is_pure_and_distinct():
    assert mint_trace_id("job-0001") == mint_trace_id("job-0001")
    assert mint_trace_id("job-0001") != mint_trace_id("job-0002")
    assert len(mint_trace_id("job-0001")) == 16
    int(mint_trace_id("job-0001"), 16)  # hex


# ----------------------------------------------------------------------
# Instruments.
# ----------------------------------------------------------------------
def test_counter_monotonic_and_rejects_negative():
    registry = ProbeRegistry()
    counter = registry.counter("repro_test_total", "help text")
    counter.add(1000.0)
    counter.add(1001.0, 2.5)
    assert counter.total == 3.5
    assert counter.help_text == "help text"
    with pytest.raises(SimulationError):
        counter.add(1002.0, -1.0)
    # Same (name, labels) -> the same instrument object.
    assert registry.counter("repro_test_total") is counter
    assert registry.counter("repro_test_total", state="done") is not counter


def test_invalid_metric_and_label_names_rejected():
    registry = ProbeRegistry()
    with pytest.raises(SimulationError):
        registry.counter("bad name")
    with pytest.raises(SimulationError):
        registry.counter("repro_ok_total", **{"0bad": "x"})
    with pytest.raises(SimulationError):
        registry.histogram("bad-name", bounds=(1.0,))
    # Dotted probe names are valid instrument names.
    assert registry.counter("flow.recomputes").name == "flow.recomputes"


def test_histogram_without_bounds_returns_existing_latency_histogram():
    registry = ProbeRegistry()
    latency = registry.histogram("repro_latency_seconds", bounds=(1.0, 2.0))
    assert isinstance(latency, LatencyHistogram)
    assert registry.histogram("repro_latency_seconds") is latency


def test_histogram_quantile_interpolates_linearly():
    histogram = LatencyHistogram("repro_latency_seconds", bounds=(1.0, 2.0))
    for value in (0.5, 1.5, 1.5, 1.5):
        histogram.observe(0.0, value)
    assert histogram.count == 4
    assert histogram.cumulative() == [
        (1.0, 1),
        (2.0, 4),
        (float("inf"), 4),
    ]
    # Target rank 2 falls in the (1.0, 2.0] bucket holding 3 samples:
    # interpolate 1/3 of the way through it.
    assert histogram.quantile(0.5) == pytest.approx(1.0 + 1.0 / 3.0)
    assert histogram.quantile(1.0) == pytest.approx(2.0)


def test_histogram_empty_and_overflow():
    registry = ProbeRegistry()
    histogram = registry.histogram("repro_latency_seconds", bounds=(1.0, 2.0))
    assert histogram.quantile(0.5) == 0.0
    histogram.observe(0.0, 50.0)  # lands in the +Inf overflow bucket
    assert histogram.cumulative()[-1] == (float("inf"), 1)
    # The histogram cannot resolve past its largest finite bound.
    assert histogram.quantile(0.99) == 2.0
    data = telemetry_snapshot(registry, 0.0, 0.0)["histograms"][0]
    assert data["count"] == 1
    assert data["buckets"][-1] == [2.0, 0]
    assert "p99" in data


def test_histogram_rejects_empty_and_duplicate_buckets():
    with pytest.raises(SimulationError):
        LatencyHistogram("repro_x_seconds", bounds=())
    with pytest.raises(SimulationError):
        LatencyHistogram("repro_x_seconds", bounds=(1.0, 1.0))


# ----------------------------------------------------------------------
# Registry snapshots + the snapshot validator.
# ----------------------------------------------------------------------
def test_snapshot_shape_and_validation():
    registry = ProbeRegistry()
    registry.counter("repro_jobs_total").add(1000.0, 3)
    registry.gauge("repro_depth").set(1000.0, 2)
    registry.histogram("repro_wait_seconds", bounds=(0.1, 1.0)).observe(
        1000.0, 0.05
    )
    snapshot = telemetry_snapshot(
        registry, 1007.0, 7.0, extra={"round": 1}, final=True
    )
    assert [entry["value"] for entry in snapshot["counters"]] == [3.0]
    assert [entry["value"] for entry in snapshot["gauges"]] == [2.0]
    assert snapshot["histograms"][0]["count"] == 1
    assert snapshot["record"] == "telemetry_snapshot"
    assert snapshot["schema_version"] == TELEMETRY_SCHEMA_VERSION
    assert snapshot["uptime_seconds"] == pytest.approx(7.0)
    assert snapshot["final"] is True
    assert snapshot["round"] == 1
    assert validate_snapshot(snapshot) == []
    # Snapshots survive a JSON round trip (what telemetry.jsonl holds).
    assert validate_snapshot(json.loads(json.dumps(snapshot))) == []


def test_validate_snapshot_catches_tampering():
    registry = ProbeRegistry()
    registry.histogram("repro_wait_seconds", bounds=(0.1, 1.0)).observe(0.0, 0.5)
    snapshot = telemetry_snapshot(registry, 0.0, 0.0)
    snapshot["histograms"][0]["buckets"] = [[1.0, 2], [0.1, 1]]
    assert any(
        "not increasing" in problem for problem in validate_snapshot(snapshot)
    )
    assert validate_snapshot({"record": "wrong"})
    assert validate_snapshot([]) == ["snapshot: not a JSON object"]


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
def test_span_recorder_records_marks_and_context_blocks():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock, os_pid=42)
    trace = mint_trace_id("job-0001")
    recorder.mark(trace, "submit", parent_id=f"{trace}/root", job_id="job-0001")
    with recorder.span(trace, "worker", span_id=f"{trace}/worker.0") as attrs:
        clock.advance(2.0)
        attrs["status"] = "ok"
    spans = recorder.spans
    assert [span.name for span in spans] == ["submit", "worker"]
    assert spans[0].duration == 0.0
    assert spans[1].duration == pytest.approx(2.0)
    assert spans[1].span_id == f"{trace}/worker.0"
    assert spans[1].attrs == {"status": "ok"}
    assert spans[0].span_id == f"{trace}/p42.1"
    assert recorder.by_trace() == {trace: spans}


def test_span_record_round_trip_and_cross_process_stitch():
    clock = FakeClock()
    parent = SpanRecorder(clock=clock, os_pid=1)
    worker = SpanRecorder(clock=clock, os_pid=99)
    trace = mint_trace_id("job-0002")
    worker.record(trace, "simulate", 1000.0, 1001.5, run_id="r1")
    records = [span.as_record() for span in worker.spans]
    # Serialize across the process boundary and stitch back in.
    parent.extend(json.loads(json.dumps(records)))
    stitched = parent.spans[0]
    assert stitched.os_pid == 99
    assert stitched.attrs == {"run_id": "r1"}
    assert WallSpan.from_record(stitched.as_record()) == stitched


# ----------------------------------------------------------------------
# The stitched Chrome trace.
# ----------------------------------------------------------------------
def _job_trace(trace_id, start):
    """One synthetic job: 10 s wall window, 5 s-makespan simulated run."""
    return {
        "trace_id": trace_id,
        "label": f"job {trace_id}",
        "wall_spans": [
            {
                "trace_id": trace_id,
                "span_id": f"{trace_id}/root",
                "parent_id": None,
                "name": "job",
                "start": start,
                "end": start + 10.0,
                "os_pid": 1,
                "attrs": {"state": "done"},
            },
            {
                "trace_id": trace_id,
                "span_id": f"{trace_id}/worker.0",
                "parent_id": f"{trace_id}/root",
                "name": "worker",
                "start": start + 1.0,
                "end": start + 9.0,
                "os_pid": 1,
                "attrs": {},
            },
        ],
        "sim_runs": [
            {
                "run_id": "r1",
                "makespan": 5.0,
                "start": start + 2.0,
                "end": start + 8.0,
                "spans": [
                    {
                        "name": "run", "category": "run", "component": "run",
                        "rank": 0, "start": 0.0, "end": 5.0, "duration": 5.0,
                    },
                    {
                        "name": "write", "category": "phase",
                        "component": "writer", "rank": 0,
                        "start": 1.0, "end": 3.0, "duration": 2.0,
                        "iteration": 0,
                    },
                ],
            }
        ],
    }


def test_service_chrome_trace_rescales_sim_into_wall_window():
    t0 = 5000.0
    trace_a = mint_trace_id("job-a")
    document = service_chrome_trace([_job_trace(trace_a, t0)])
    assert validate_chrome_trace(document) == []
    events = document["traceEvents"]
    service = [e for e in events if e.get("cat") == "service"]
    sim = [e for e in events if str(e.get("cat", "")).startswith("sim-")]
    # run/rank category spans are dropped; the phase span survives.
    assert [e["name"] for e in sim] == ["write"]
    assert all(e["tid"] == 0 for e in service)
    assert sim[0]["tid"] != 0
    # 6 s wall window over a 5 s makespan -> scale 1.2; virtual 1.0..3.0
    # lands at wall 2.0 + 1.2 .. 2.0 + 3.6 relative to the job start.
    assert sim[0]["ts"] == pytest.approx((2.0 + 1.2) / 1e-6)
    assert sim[0]["dur"] == pytest.approx(2.4 / 1e-6)
    assert sim[0]["args"]["trace_id"] == trace_a
    # The sim span nests inside the worker's wall window.
    worker = next(e for e in service if e["name"] == "worker")
    assert worker["ts"] <= sim[0]["ts"]
    assert sim[0]["ts"] + sim[0]["dur"] <= worker["ts"] + worker["dur"] + 1e-6
    meta = document["repro"]
    assert meta["runs"] == []
    assert meta["service"]["epoch_origin"] == t0
    assert meta["service"]["jobs"][0]["sim_spans"] == 1


def test_service_chrome_trace_orders_jobs_by_trace_id():
    traces = [
        _job_trace(mint_trace_id("job-b"), 6000.0),
        _job_trace(mint_trace_id("job-a"), 5000.0),
    ]
    document = service_chrome_trace(traces)
    assert validate_chrome_trace(document) == []
    jobs = document["repro"]["service"]["jobs"]
    assert [job["pid"] for job in jobs] == [1, 2]
    assert jobs[0]["trace_id"] == min(t["trace_id"] for t in traces)
    # Earliest wall span anchors the timeline at ts == 0.
    assert document["repro"]["service"]["epoch_origin"] == 5000.0
    service_ts = [
        e["ts"] for e in document["traceEvents"] if e.get("cat") == "service"
    ]
    assert min(service_ts) == 0.0


def test_service_chrome_trace_empty():
    document = service_chrome_trace([])
    assert validate_chrome_trace(document) == []
    assert document["traceEvents"] == []
    assert document["repro"]["service"]["jobs"] == []


# ----------------------------------------------------------------------
# Quantile edge cases: bucket boundaries, empty, single-sample.
# ----------------------------------------------------------------------
def test_histogram_quantile_at_exact_bucket_boundary():
    histogram = LatencyHistogram("repro_latency_seconds", bounds=(1.0, 2.0, 4.0))
    # An observation equal to a bound lands in that bucket (le semantics).
    for value in (1.0, 2.0, 4.0, 4.0):
        histogram.observe(0.0, value)
    assert histogram.cumulative() == [
        (1.0, 1),
        (2.0, 2),
        (4.0, 4),
        (float("inf"), 4),
    ]
    # Target ranks that coincide with a cumulative count hit the bucket's
    # upper bound exactly — no interpolation drift across the boundary.
    assert histogram.quantile(0.25) == pytest.approx(1.0)
    assert histogram.quantile(0.5) == pytest.approx(2.0)
    assert histogram.quantile(1.0) == pytest.approx(4.0)
    # Just past a boundary rank the estimate moves into the next bucket.
    assert 2.0 < histogram.quantile(0.75) < 4.0


def test_histogram_quantile_empty_is_zero_for_all_q():
    registry = ProbeRegistry()
    histogram = registry.histogram("repro_latency_seconds", bounds=(1.0,))
    for q in (0.0, 0.5, 0.95, 1.0):
        assert histogram.quantile(q) == 0.0
    data = telemetry_snapshot(registry, 0.0, 0.0)["histograms"][0]
    assert data["count"] == 0
    assert data["p99"] == 0.0


def test_histogram_quantile_single_sample():
    histogram = LatencyHistogram("repro_latency_seconds", bounds=(1.0, 2.0))
    histogram.observe(0.0, 1.5)
    # One sample in (1.0, 2.0]: q=0 collapses to the empty first bucket's
    # bound (the occupied bucket's lower edge), q in between interpolates
    # linearly, and q=1 reaches the upper bound.
    assert histogram.quantile(0.0) == pytest.approx(1.0)
    assert histogram.quantile(0.5) == pytest.approx(1.5)
    assert histogram.quantile(1.0) == pytest.approx(2.0)


def test_histogram_quantile_single_sample_first_bucket():
    histogram = LatencyHistogram("repro_latency_seconds", bounds=(1.0, 2.0))
    histogram.observe(0.0, 0.25)
    # The first bucket interpolates from an implicit lower bound of 0.
    assert histogram.quantile(0.5) == pytest.approx(0.5)
    assert histogram.quantile(1.0) == pytest.approx(1.0)


def test_histogram_quantile_zero_q_returns_lower_edge():
    histogram = LatencyHistogram("repro_latency_seconds", bounds=(1.0, 2.0))
    for value in (1.5, 1.6):
        histogram.observe(0.0, value)
    # q=0 targets rank 0: the first non-empty bucket's lower edge.
    assert histogram.quantile(0.0) == pytest.approx(1.0)
