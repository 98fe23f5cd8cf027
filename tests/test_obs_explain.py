"""Trace analytics: critical paths, blame attribution, explainable diffs."""

import copy
import json

import pytest

from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS, SchedulerConfig
from repro.obs.campaign import (
    _config_payload,
    campaign_from_store,
    diff_campaigns,
    run_campaign,
    run_spec_cell,
)
from repro.obs.capture import observe_workflow
from repro.obs.cli import main as obs_main
from repro.obs.explain import (
    BUCKETS,
    CAUSE_BUCKETS,
    attribution_from_phases,
    attribution_record,
    bucket_shift,
    campaign_bottlenecks,
    cell_bottleneck,
    config_attribution,
    critical_path,
    drift_explanation,
    explain_observation,
    explain_report,
    explain_shift,
    flip_explanation,
    last_finishing_leaf,
    leaf_tracks,
    path_context,
    utilization_rows,
    validate_explain_report,
    why_line,
)
from repro.obs.probes import step_fraction_above
from repro.obs.store import CampaignStore
from repro.sim.engine import TIME_EPSILON
from repro.sim.trace import TraceRecord


@pytest.fixture(scope="module")
def observations():
    """One observed run per Table I configuration (micro-2k@8, 2 iters)."""
    spec = build_workflow("micro-2k", ranks=8, iterations=2)
    return {
        config.label: observe_workflow(spec, config) for config in ALL_CONFIGS
    }


@pytest.fixture(scope="module")
def explanations(observations):
    return {
        label: explain_observation(obs) for label, obs in observations.items()
    }


# ----------------------------------------------------------------------
# Critical path: tiling, sum-to-makespan, gating.
# ----------------------------------------------------------------------
def test_segments_tile_makespan_for_every_config(explanations):
    for label, explanation in explanations.items():
        segments = explanation.segments
        assert segments, label
        assert segments[0].start == pytest.approx(0.0, abs=TIME_EPSILON)
        assert segments[-1].end == pytest.approx(
            explanation.makespan, abs=TIME_EPSILON
        )
        for before, after in zip(segments, segments[1:]):
            assert after.start == pytest.approx(before.end, abs=TIME_EPSILON)


def test_buckets_sum_to_makespan_within_epsilon(explanations):
    for label, explanation in explanations.items():
        total = sum(explanation.buckets.values())
        # Telescoping boundaries: the sum is exact up to float noise.
        assert abs(total - explanation.makespan) <= max(
            TIME_EPSILON, 1e-12 * explanation.makespan
        ), label
        assert set(explanation.buckets) == set(BUCKETS)
        assert all(v >= 0 for v in explanation.buckets.values()), label


def test_no_idle_on_fully_traced_runs(explanations):
    # The workflow tracks cover the whole run; any idle would mean the
    # gating chain lost time.
    for label, explanation in explanations.items():
        assert explanation.buckets["idle"] == pytest.approx(
            0.0, abs=TIME_EPSILON
        ), label


def test_critical_track_is_a_reader(explanations):
    # The makespan ends when the last reader finishes consuming.
    for label, explanation in explanations.items():
        assert explanation.critical_track.startswith("reader["), label


def test_serial_path_jumps_to_writer_track(explanations):
    # Serial readers start after writers-complete with no wait record:
    # the walk must jump the gap onto the writer track.
    components = {s.component for s in explanations["S-LocW"].segments}
    assert components == {"writer", "reader"}


def test_parallel_waits_stay_on_path_as_drain(explanations):
    for label in ("P-LocW", "P-LocR"):
        explanation = explanations[label]
        assert explanation.buckets["drain"] > 0, label
        drains = [s for s in explanation.segments if s.bucket == "drain"]
        assert drains and all(s.phase == "wait" for s in drains)
        # Drain is blamed on the channel socket's PMEM device.
        expected = f"pmem[{explanation.channel_socket}]"
        assert all(expected in s.resources for s in drains), label


def test_remote_vs_local_io_classification(explanations):
    # S-LocW: writer local (pmem), reader remote; S-LocR is the mirror.
    assert explanations["S-LocW"].buckets["pmem"] > 0
    assert explanations["S-LocW"].buckets["remote"] > 0
    for label, explanation in explanations.items():
        config = SchedulerConfig.from_label(label)
        for segment in explanation.segments:
            if segment.phase == "write":
                assert segment.bucket == (
                    "pmem" if config.writer_local else "remote"
                ), label
            if segment.phase == "read":
                assert segment.bucket == (
                    "pmem" if not config.writer_local else "remote"
                ), label


def test_gated_by_names_the_gating_span(explanations):
    segments = explanations["P-LocR"].segments
    assert segments[0].gated_by == "t=0"
    for segment in segments[1:]:
        assert segment.gated_by != "t=0"


def test_critical_path_empty_and_degenerate():
    context = path_context("S-LocW")
    assert critical_path([], 0.0, context) == []
    gaps = critical_path([], 5.0, context)
    assert len(gaps) == 1 and gaps[0].bucket == "idle"
    assert gaps[0].duration == pytest.approx(5.0)


def test_path_segment_record_roundtrip(explanations):
    record = explanations["S-LocW"].segments[0].as_record()
    assert set(record) == {
        "start",
        "end",
        "bucket",
        "component",
        "rank",
        "phase",
        "iteration",
        "resources",
        "gated_by",
    }
    assert isinstance(record["resources"], list)


# ----------------------------------------------------------------------
# Determinism.
# ----------------------------------------------------------------------
def test_explain_report_byte_identical_across_runs():
    def render():
        spec = build_workflow("micro-64mb", ranks=8, iterations=2)
        explanations = [
            explain_observation(observe_workflow(spec, config))
            for config in ALL_CONFIGS
        ]
        return json.dumps(explain_report(explanations), sort_keys=True)

    assert render() == render()


# ----------------------------------------------------------------------
# Winner re-derivation (the Table II acceptance criterion).
# ----------------------------------------------------------------------
def test_explain_rederives_winner_and_attributes_it(explanations):
    # argmin over explain's own makespans must agree with the campaign
    # winner, and each run must carry a dominant actionable bucket.
    winner = min(explanations, key=lambda label: explanations[label].makespan)
    spec = build_workflow("micro-2k", ranks=8, iterations=2)
    from repro.metrics.analysis import best_config
    from repro.workflow.runner import run_workflow

    results = [
        run_workflow(spec, config=config) for config in ALL_CONFIGS
    ]
    assert winner == best_config(results)
    for explanation in explanations.values():
        assert explanation.dominant in CAUSE_BUCKETS
        assert 0.0 < explanation.dominant_fraction <= 1.0
        assert explanation.coupling.startswith("writer->reader via pmem[")


# ----------------------------------------------------------------------
# Attribution records + phase estimator.
# ----------------------------------------------------------------------
def test_attribution_record_shape(explanations):
    record = attribution_record(explanations["P-LocW"])
    assert set(record["buckets"]) == set(BUCKETS)
    assert record["dominant"] in CAUSE_BUCKETS
    assert "estimated" not in record
    assert record["channel_socket"] == 0  # P-LocW: channel on writer socket


def test_attribution_from_phases_sums_and_flags():
    phases = {
        "writer": {"compute": 1.0, "io": 2.0, "wait": 0.5},
        "reader": {"compute": 1.5, "io": 1.0, "wait": 3.0},
    }
    record = attribution_from_phases("S-LocW", 10.0, phases)
    assert record["estimated"] is True
    assert sum(record["buckets"].values()) == pytest.approx(10.0)
    # Serial: writer wait is barrier, reader wait is drain, writer io is
    # local (pmem), reader io remote.
    assert record["buckets"]["barrier"] == pytest.approx(0.5)
    assert record["buckets"]["drain"] == pytest.approx(3.0)
    assert record["buckets"]["pmem"] == pytest.approx(2.0)
    assert record["buckets"]["remote"] == pytest.approx(1.0)
    assert record["buckets"]["idle"] == pytest.approx(1.0)
    parallel = attribution_from_phases("P-LocR", 6.0, phases)
    # Parallel: writer phases surface as reader drain, not path time.
    assert parallel["buckets"]["barrier"] == 0.0
    assert parallel["buckets"]["compute"] == pytest.approx(1.5)


def test_estimator_matches_precise_buckets_on_micro(observations):
    # Micro workflows have no compute jitter worth speaking of: the
    # estimator and the critical-path engine agree closely.
    for label, observation in observations.items():
        precise = attribution_record(explain_observation(observation))
        payload = _config_payload(observation)
        estimated = attribution_from_phases(
            label, payload["makespan"], payload["phases"]
        )
        assert estimated["dominant"] == precise["dominant"], label


def test_config_attribution_prefers_stored_falls_back_to_phases(observations):
    payload = _config_payload(observations["P-LocR"])
    stored = config_attribution(payload)
    assert stored is payload["attribution"]
    legacy = {k: v for k, v in payload.items() if k != "attribution"}
    fallback = config_attribution(legacy)
    assert fallback is not None and fallback["estimated"] is True
    assert config_attribution({"makespan": 1.0}) is None


def test_why_line_phrasing():
    assert why_line(None) == "-"
    line = why_line(
        {
            "dominant": "drain",
            "dominant_fraction": 0.382,
            "channel_socket": 1,
            "estimated": True,
        }
    )
    assert line == "drain 38.2% on pmem[1] (est.)"
    assert why_line({"dominant": "compute", "dominant_fraction": 0.9}) == (
        "compute 90.0%"
    )


# ----------------------------------------------------------------------
# Diff explanations.
# ----------------------------------------------------------------------
def _attr(**buckets):
    full = {bucket: 0.0 for bucket in BUCKETS}
    full.update(buckets)
    return {"buckets": full, "channel_socket": 1}


def test_bucket_shift_picks_largest_actionable_move():
    shift = bucket_shift(
        _attr(drain=10.0, compute=5.0), _attr(drain=14.0, compute=5.5)
    )
    assert shift == ("drain", 10.0, 14.0)


def test_bucket_shift_ignores_noise_and_idle():
    noisy = bucket_shift(
        _attr(drain=10.0), _attr(drain=10.0 + 1e-9)
    )
    assert noisy is None
    a, b = _attr(drain=10.0), _attr(drain=10.0)
    a["buckets"]["idle"], b["buckets"]["idle"] = 0.0, 5.0
    assert bucket_shift(a, b) is None


def test_explain_shift_sentence():
    sentence = explain_shift(_attr(drain=12.3), _attr(drain=17.0))
    assert sentence == "drain on pmem[1] grew 38.2% (12.3 s -> 17.0 s)"
    shrank = explain_shift(_attr(remote=4.0), _attr(remote=2.0))
    assert "shrank 50.0%" in shrank and "remote on pmem[1]" in shrank
    fresh = explain_shift(_attr(), _attr(drain=2.0))
    assert "grew to 2.0 s" in fresh
    tagged = explain_shift(
        dict(_attr(drain=1.0), estimated=True), _attr(drain=2.0)
    )
    assert tagged.endswith("[estimated]")


def test_flip_explanation_prefers_before_winner_and_falls_back():
    configs_a = {"S-LocW": {"attribution": _attr(drain=10.0)}}
    configs_b = {"S-LocW": {"attribution": _attr(drain=13.8)}}
    line = flip_explanation("S-LocW", "P-LocR", configs_a, configs_b)
    assert line.startswith("flipped because S-LocW drain on pmem[1] grew 38")
    assert (
        flip_explanation("S-LocW", "P-LocR", {}, {})
        == "no attribution recorded for either campaign"
    )


def test_drift_explanation_reads_payload_entries():
    entry_a = {"attribution": _attr(pmem=2.0)}
    entry_b = {"attribution": _attr(pmem=3.0)}
    assert "pmem on pmem[1] grew 50.0%" in drift_explanation(entry_a, entry_b)
    assert drift_explanation({}, entry_b) is None


# ----------------------------------------------------------------------
# Campaign integration: stored attribution, bottlenecks, diff lines.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def micro_campaign(tmp_path_factory):
    store = CampaignStore(str(tmp_path_factory.mktemp("camps")))
    run = run_campaign(suite="micro", name="explain-t1", store=store)
    return store, run


def test_config_payload_stores_attribution(observations):
    payload = _config_payload(observations["S-LocR"])
    attribution = payload["attribution"]
    assert set(attribution["buckets"]) == set(BUCKETS)
    assert abs(
        sum(attribution["buckets"].values()) - payload["makespan"]
    ) <= max(TIME_EPSILON, 1e-12 * payload["makespan"])


def test_stored_attribution_equals_explain_attribution(observations):
    # `explain run` and the store path share one walker: the stored record
    # is exactly what explain_observation reports for every config.
    assert len(observations) == len(ALL_CONFIGS)
    for label, observation in observations.items():
        stored = _config_payload(observation)["attribution"]
        explained = attribution_record(explain_observation(observation))
        assert json.dumps(explained, sort_keys=True) == json.dumps(
            stored, sort_keys=True
        ), label


def test_cell_run_builds_no_span_tree_or_utilization(monkeypatch):
    import repro.obs.capture as capture_module
    import repro.obs.explain as explain_module

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a stored cell must not build this")

    monkeypatch.setattr(capture_module, "build_spans", forbidden)
    monkeypatch.setattr(explain_module, "utilization_rows", forbidden)
    seen = []
    cell = run_spec_cell(
        build_workflow("micro-2k", ranks=8, iterations=2),
        on_observation=seen.append,
    )
    assert len(seen) == len(ALL_CONFIGS)
    assert all(observation._spans is None for observation in seen)
    for entry in cell.deterministic["configs"].values():
        assert set(entry["attribution"]["buckets"]) == set(BUCKETS)


def test_cell_bottleneck_and_campaign_ranking(micro_campaign):
    _, run = micro_campaign
    for cell in run.cells:
        bottleneck = cell.bottleneck
        assert bottleneck is not None
        assert bottleneck["winner"] == cell.winner
        assert bottleneck["dominant"] in CAUSE_BUCKETS
        assert not bottleneck["estimated"]
    rows = campaign_bottlenecks(run.cells)
    assert len(rows) == len(run.cells)
    fractions = [row["fraction"] for row in rows]
    assert fractions == sorted(fractions, reverse=True)


def test_cell_bottleneck_none_without_data():
    assert cell_bottleneck({"winner": "S-LocW", "configs": {}}) is None


def test_diff_emits_explanation_for_every_flip(micro_campaign):
    store, run = micro_campaign
    before = campaign_from_store(store.read("explain-t1"))
    after = copy.deepcopy(before)
    for cell in after.cells:
        # Force a flip: inflate the winner's makespan and drain bucket.
        configs = cell.deterministic["configs"]
        entry = configs[cell.winner]
        entry["makespan"] *= 10.0
        entry["attribution"]["buckets"]["drain"] += entry["makespan"]
        losers = [label for label in configs if label != cell.winner]
        cell.deterministic["winner"] = min(
            losers, key=lambda label: configs[label]["makespan"]
        )
    diff = diff_campaigns(before, after)
    assert diff.winner_flips
    for flip in diff.winner_flips:
        assert flip.explanation
        assert "drain" in flip.explanation
    text = diff.render_text()
    assert text.count("why: ") >= len(diff.winner_flips)
    markdown = diff.render_markdown()
    assert "| why |" in markdown
    for drift in diff.drifts:
        assert drift.explanation


def test_diff_identical_campaigns_has_no_flips(micro_campaign):
    store, _ = micro_campaign
    run = campaign_from_store(store.read("explain-t1"))
    diff = diff_campaigns(run, run)
    assert not diff.winner_flips and not diff.drifts


# ----------------------------------------------------------------------
# Report schema validation.
# ----------------------------------------------------------------------
def test_validate_explain_report_accepts_real_report(explanations):
    document = explain_report(list(explanations.values()))
    assert validate_explain_report(document) == []


def test_validate_explain_report_rejects_bad_documents(explanations):
    assert validate_explain_report([]) == ["report: not a JSON object"]
    assert validate_explain_report({"record": "nope"})
    good = explain_report([explanations["S-LocW"]])

    broken = json.loads(json.dumps(good))
    broken["runs"][0]["buckets"]["compute"] += 1.0
    assert any("sum" in p for p in validate_explain_report(broken))

    unknown = json.loads(json.dumps(good))
    unknown["runs"][0]["buckets"]["swap"] = 0.0
    assert any("unknown bucket" in p for p in validate_explain_report(unknown))

    torn = json.loads(json.dumps(good))
    torn["runs"][0]["segments"][0]["end"] += 0.5
    assert any(
        "tile" in p or "ends at" in p for p in validate_explain_report(torn)
    )

    negative = json.loads(json.dumps(good))
    negative["runs"][0]["buckets"]["pmem"] = -1.0
    assert any(
        "non-negative" in p for p in validate_explain_report(negative)
    )


# ----------------------------------------------------------------------
# Utilization (summary satellite).
# ----------------------------------------------------------------------
def test_utilization_rows_fractions(observations):
    rows = utilization_rows(observations["P-LocR"])
    names = {row["name"] for row in rows}
    assert {"writer", "reader"} <= names
    assert any(row["kind"] == "resource" for row in rows)
    for row in rows:
        for field in ("busy", "wait", "idle"):
            assert 0.0 <= row[field] <= 1.0 + 1e-9, row


def test_step_fraction_helpers():
    samples = [(0.0, 1.0), (2.0, 0.0), (3.0, 2.0)]
    assert step_fraction_above(samples, 4.0, 0.0) == pytest.approx(0.75)
    assert step_fraction_above(samples, 4.0, 1.0) == pytest.approx(0.25)
    assert step_fraction_above([], 4.0, 0.0) == 0.0
    assert step_fraction_above(samples, 0.0, 0.0) == 0.0


def test_record_track_helpers(observations):
    records = observations["S-LocW"].tracer.records
    tracks = leaf_tracks(records)
    assert list(tracks) == sorted(tracks)
    for track in tracks.values():
        starts = [record.start for record in track]
        assert starts == sorted(starts)
    last = last_finishing_leaf(records)
    assert last is not None
    assert last.end == max(r.end for r in tracks[(last.component, last.rank)])
    assert last_finishing_leaf([]) is None


def test_record_helpers_tie_breaks():
    # Same track, same end: the first leaf in (component, rank, iteration,
    # start, end, phase) order wins, even though the track's own
    # (start, end, phase) order puts the other one first.
    late_iteration = TraceRecord("reader", 1, "read", 0.0, 2.0, iteration=1)
    early_iteration = TraceRecord("reader", 1, "wait", 1.0, 2.0, iteration=0)
    assert last_finishing_leaf([late_iteration, early_iteration]) is early_iteration
    # Across tracks an end tie goes to the largest (component, rank).
    writer = TraceRecord("writer", 0, "write", 1.5, 2.0, iteration=0)
    reader_0 = TraceRecord("reader", 0, "read", 0.0, 2.0, iteration=0)
    records = [writer, late_iteration, reader_0, early_iteration]
    assert last_finishing_leaf(records) is writer
    # Tracks iterate in sorted key order; within a track a full
    # (start, end, phase) tie keeps record order (lower iteration first).
    twin_1 = TraceRecord("reader", 0, "compute", 3.0, 4.0, iteration=1)
    twin_0 = TraceRecord("reader", 0, "compute", 3.0, 4.0, iteration=0)
    tracks = leaf_tracks(records + [twin_1, twin_0])
    assert list(tracks) == [("reader", 0), ("reader", 1), ("writer", 0)]
    assert tracks[("reader", 0)] == [reader_0, twin_0, twin_1]
    assert tracks[("reader", 1)] == [late_iteration, early_iteration]


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
def test_cli_explain_run_json_and_validate(tmp_path, capsys):
    out = tmp_path / "explain.json"
    assert (
        obs_main(
            [
                "explain",
                "run",
                "--config",
                "all",
                "--iterations",
                "2",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    document = json.loads(out.read_text())
    assert validate_explain_report(document) == []
    assert len(document["runs"]) == len(ALL_CONFIGS)
    assert obs_main(["explain", "validate", str(out)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"record": "nope"}))
    assert obs_main(["explain", "validate", str(bad)]) == 1


def test_cli_explain_run_text_segments(capsys):
    assert (
        obs_main(
            ["explain", "run", "--iterations", "2", "--segments"]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "critical path (oldest first):" in output
    assert "dominant" in output


def test_cli_explain_top_and_diff(micro_campaign, capsys):
    store, _ = micro_campaign
    assert (
        obs_main(["explain", "top", "explain-t1", "--dir", store.root]) == 0
    )
    top = capsys.readouterr().out
    assert "bottleneck" in top and "micro-2k@8" in top
    assert (
        obs_main(
            [
                "explain",
                "diff",
                "explain-t1",
                "explain-t1",
                "--dir",
                store.root,
            ]
        )
        == 0
    )
    assert "no attribution shifts" in capsys.readouterr().out


def test_cli_summary_includes_utilization(capsys):
    assert obs_main(["summary", "--iterations", "2"]) == 0
    output = capsys.readouterr().out
    assert "utilization" in output
    assert "busy" in output


# ----------------------------------------------------------------------
# Service integration.
# ----------------------------------------------------------------------
def test_regret_entry_carries_bottleneck(tmp_path):
    from repro.service.scheduler import ServiceScheduler

    scheduler = ServiceScheduler(root=str(tmp_path / "service"))
    scheduler.submit_suite(suite="micro")
    report = scheduler.run()
    assert report.regrets
    for entry in report.regrets:
        assert entry["bottleneck"] in CAUSE_BUCKETS
        assert "on pmem[" in entry["why"] or "%" in entry["why"]
    text = report.render_text()
    assert "bottleneck" in text
