"""Export acceptance tests: schema, reconciliation, determinism, CLI.

These are the PR's acceptance criteria made executable:

* a small S-LocW run exports valid Chrome trace JSON (``ph`` / ``ts`` /
  ``pid``/``tid`` schema-checked);
* counter totals reconcile exactly with :meth:`Tracer.total_time`, the
  metrics-layer :class:`RunResult`, and the workflow spec's data volume —
  for **every** Table I configuration;
* two identical runs export byte-identical trace JSON.
"""

import json

import pytest

from repro.apps.microbench import SMALL_OBJECT_BYTES, micro_workflow
from repro.core.configs import ALL_CONFIGS, S_LOCW
from repro.obs.capture import capture_runs, observe_workflow
from repro.obs.cli import main as obs_main
from repro.obs.export import (
    READER_TID_OFFSET,
    chrome_trace,
    metrics_records,
    span_records,
    to_json,
    to_jsonl,
    trace_makespans,
    validate_chrome_trace,
)
from repro.units import MICROSECOND


def phase_spans(observation):
    return [s for s in observation.spans() if s.category == "phase"]


def small_spec(ranks=4, iterations=2):
    return micro_workflow(SMALL_OBJECT_BYTES, ranks=ranks, iterations=iterations)


@pytest.fixture(scope="module")
def observed():
    """One small observed S-LocW run shared by the schema tests."""
    return observe_workflow(small_spec(), S_LOCW)


@pytest.fixture(scope="module")
def document(observed):
    return chrome_trace([observed])


def test_hot_phase_report_builds_no_span_tree(monkeypatch):
    import repro.obs.capture as capture_module
    from repro.obs.report import _phase_totals, hot_phase_report

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the hot-phase report must not build spans")

    observation = observe_workflow(small_spec(), S_LOCW)
    with monkeypatch.context() as patch:
        patch.setattr(capture_module, "build_spans", forbidden)
        assert "writer;write" in hot_phase_report([observation])
        totals = _phase_totals(observation)
    assert observation._spans is None
    # The record sums are the leaf-span sums, float for float.
    from_spans = {}
    for span in phase_spans(observation):
        stack = f"{span.component};{span.name}"
        seconds, count = from_spans.get(stack, (0.0, 0))
        from_spans[stack] = (seconds + span.duration, count + 1)
    assert totals == from_spans


class TestChromeTraceSchema:
    def test_document_validates(self, document):
        assert validate_chrome_trace(document) == []

    def test_events_have_required_fields(self, document):
        for event in document["traceEvents"]:
            assert event["ph"] in ("X", "C", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_process_and_thread_metadata(self, document):
        names = {
            (e["pid"], e["tid"], e["args"]["name"])
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        spec = small_spec()
        for rank in range(spec.ranks):
            assert (1, rank, f"writer {rank}") in names
            assert (1, READER_TID_OFFSET + rank, f"reader {rank}") in names
        process = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        )
        assert "[S-LocW]" in process["args"]["name"]

    def test_timestamps_are_microseconds(self, observed, document):
        writes = [s for s in phase_spans(observed) if s.name == "write"]
        first = min(writes, key=lambda s: (s.start, s.rank))
        matches = [
            e
            for e in document["traceEvents"]
            if e["ph"] == "X"
            and e["name"] == "write"
            and e["ts"] == first.start / MICROSECOND
        ]
        assert matches
        assert matches[0]["dur"] == pytest.approx(first.duration / MICROSECOND)

    def test_counter_tracks_present(self, document):
        counter_names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "C"
        }
        assert "engine.queue_depth" in counter_names
        assert "flow.active" in counter_names
        assert "channel.versions_published" in counter_names
        assert any(name.startswith("resource.bytes_moved") for name in counter_names)

    def test_validator_rejects_broken_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": -1, "pid": 0, "tid": 0}]}
        ) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "Q", "ts": 0, "pid": 0, "tid": 0}]}
        ) != []
        assert validate_chrome_trace(
            {
                "traceEvents": [],
                "repro": {"runs": [{"makespan": 1.0}]},
            }
        ) != []


class TestReconciliation:
    """Counter totals must agree exactly with the metrics layer and spec."""

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_payload_bytes_match_spec_all_table01_configs(self, config):
        spec = small_spec()
        obs = observe_workflow(spec, config)
        socket = 0 if config.writer_local else 1
        probes = obs.probes
        expected = float(spec.total_data_bytes())
        assert probes.counter_total(
            "pmem.payload_bytes", socket=socket, direction="write"
        ) == expected
        assert probes.counter_total(
            "pmem.payload_bytes", socket=socket, direction="read"
        ) == expected
        # Nothing was attributed to the other socket.
        assert probes.counter_total(
            "pmem.payload_bytes", socket=1 - socket
        ) == 0.0
        assert obs.result.bytes_written == expected
        assert obs.result.bytes_read == expected

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_makespans_in_export_match_results(self, config):
        spec = small_spec()
        obs = observe_workflow(spec, config)
        document = chrome_trace([obs])
        makespans = trace_makespans(document)
        assert makespans == {f"{spec.name}|{config.label}": obs.result.makespan}
        run = document["repro"]["runs"][0]
        assert run["writer_runtime"] == obs.result.writer_runtime
        assert run["reader_runtime"] == obs.result.reader_runtime

    def test_channel_counters_match_spec(self, observed):
        spec = small_spec()
        probes = observed.probes
        versions = float(spec.ranks * spec.iterations)
        assert probes.counter_total("channel.versions_published") == versions
        assert probes.counter_total("channel.versions_consumed") == versions
        assert probes.counter_total("channel.bytes_published") == float(
            spec.total_data_bytes()
        )

    def test_span_durations_match_tracer_total_time(self, observed):
        tracer = observed.tracer
        totals = {}
        for span in phase_spans(observed):
            key = (span.component, span.name)
            totals[key] = totals.get(key, 0.0) + span.duration
        for (component, phase), total in totals.items():
            assert total == pytest.approx(
                tracer.total_time(component, phase), rel=1e-12
            )
        run_span = observed.spans()[0]
        assert run_span.end == observed.result.makespan

    def test_engine_counters_latched(self, observed):
        probes = observed.probes
        events = probes.counter_total("engine.events_executed")
        scheduled = probes.counter_total("engine.timers_scheduled")
        assert events > 0
        assert scheduled >= events


class TestDeterminism:
    def test_identical_runs_export_byte_identical_json(self):
        spec = small_spec()
        first = to_json(chrome_trace([observe_workflow(spec, S_LOCW)]))
        second = to_json(chrome_trace([observe_workflow(spec, S_LOCW)]))
        assert first == second

    def test_jsonl_dumps_deterministic(self):
        spec = small_spec()
        a = observe_workflow(spec, S_LOCW)
        b = observe_workflow(spec, S_LOCW)
        assert to_jsonl(span_records([a])) == to_jsonl(span_records([b]))
        assert to_jsonl(metrics_records([a])) == to_jsonl(metrics_records([b]))


class TestCaptureContext:
    def test_capture_observes_every_run(self):
        from repro.workflow.runner import run_workflow

        spec = small_spec()
        with capture_runs() as session:
            for config in ALL_CONFIGS:
                run_workflow(spec, config)
        assert len(session.finalized) == len(ALL_CONFIGS)
        labels = [obs.manifest.config for obs in session.finalized]
        assert labels == [config.label for config in ALL_CONFIGS]
        document = chrome_trace(session.finalized)
        assert validate_chrome_trace(document) == []
        assert len(document["repro"]["runs"]) == len(ALL_CONFIGS)
        assert len({run["pid"] for run in document["repro"]["runs"]}) == len(
            ALL_CONFIGS
        )

    def test_runs_outside_capture_are_unobserved(self):
        from repro.workflow.runner import run_workflow

        result = run_workflow(small_spec(), S_LOCW)
        # An observed run always records a trace.
        assert result.tracer is None


class TestCli:
    def test_export_validate_roundtrip(self, tmp_path):
        trace = tmp_path / "trace.json"
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        manifest = tmp_path / "manifest.json"
        # micro-2k@8 with 1 iteration keeps the CLI test fast.
        argv = [
            "export",
            "--config",
            "S-LocW",
            "--iterations",
            "1",
            "--out",
            str(trace),
            "--spans-out",
            str(spans),
            "--metrics-out",
            str(metrics),
            "--manifest-out",
            str(manifest),
        ]
        assert obs_main(argv) == 0
        assert obs_main(["validate", str(trace)]) == 0
        document = json.loads(trace.read_text())
        assert validate_chrome_trace(document) == []
        assert [json.loads(line) for line in spans.read_text().splitlines()]
        assert [json.loads(line) for line in metrics.read_text().splitlines()]
        manifests = json.loads(manifest.read_text())
        assert manifests[0]["config"] == "S-LocW"

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
        assert obs_main(["validate", str(bad)]) == 1

    def test_summary_prints_hot_phases(self, capsys):
        assert obs_main(["summary", "--config", "S-LocW", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "writer;write" in out
        assert "makespan" in out

    def test_summary_prints_solver_health_per_run(self, capsys, monkeypatch):
        import repro.obs.cli as cli_module

        observed = []
        observe = cli_module.observe_workflow

        def recording(*args, **kwargs):
            observed.append(observe(*args, **kwargs))
            return observed[-1]

        monkeypatch.setattr(cli_module, "observe_workflow", recording)
        assert obs_main(["summary", "--config", "all", "--iterations", "2"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  solver: ")
        ]
        assert len(observed) == len(lines) == 4
        for observation, line in zip(observed, lines):
            stats = observation.solver_stats
            hits = stats["solver_memo_hits"]
            rate = 100.0 * hits / (hits + stats["solver_memo_misses"])
            assert stats["solves"] > 0
            assert line == (
                f"  solver: {stats['solves']} solves, memo hit rate {rate:.1f}%, "
                f"{stats['solves_at_cap']} at the iteration cap"
            )
