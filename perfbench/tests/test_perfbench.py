"""Tests of the benchmark itself: its declared metrics, the fixture checker
and the span arithmetic.  Run from the repository root with
``python3 -m pytest perfbench/tests``."""

import copy
import json
import os

import pytest

import checks
import run
import tracing
from checks import NAME_RE, UNIT_RE, check_cell, load_fixture, percentile
from tracing import Tracer, summarize

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_and_units_follow_the_grammar(declared):
    names = [w["name"] for w in declared["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in declared[group]:
            names.append(metric["name"])
            assert UNIT_RE.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    for name in names:
        assert NAME_RE.match(name), name
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_declared_metrics_match_what_the_benchmark_prints(declared):
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == tracing.LAYER_METRICS
    assert end_to_end["setup_s"] == "s"
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    from workloads import WORKLOADS

    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)


def test_drift_threshold_matches_the_campaign_diff():
    from repro.obs.campaign import DEFAULT_DRIFT_THRESHOLD

    assert checks.DRIFT_THRESHOLD == DEFAULT_DRIFT_THRESHOLD


def test_checker_accepts_the_reference_and_small_drift():
    reference = load_fixture("sweep_reference.json")["cells"]["gtc+matmult@16"]
    assert check_cell(reference, reference) == []
    nudged = copy.deepcopy(reference)
    for label in nudged["makespans"]:
        nudged["makespans"][label] *= 1.01
    assert check_cell(nudged, reference) == []


def test_checker_flags_a_perturbed_makespan():
    reference = load_fixture("sweep_reference.json")["cells"]["gtc+matmult@16"]
    loser = next(label for label in reference["makespans"] if label != reference["winner"])
    perturbed = copy.deepcopy(reference)
    perturbed["makespans"][loser] *= 1.03
    problems = check_cell(perturbed, reference)
    assert len(problems) == 1 and problems[0].startswith(loser)
    missing = copy.deepcopy(reference)
    del missing["makespans"][loser]
    assert len(check_cell(missing, reference)) == 1


def test_checker_flags_a_flipped_winner():
    reference = load_fixture("service_cells.json")["cells"]["micro-2k@8"]
    summary = checks.cell_summary(reference["deterministic"])
    flipped = copy.deepcopy(summary)
    flipped["winner"] = next(l for l in summary["makespans"] if l != summary["winner"])
    problems = check_cell(flipped, summary)
    assert problems == [f"winner {flipped['winner']} != reference {summary['winner']}"]


def test_self_time_is_span_minus_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
        ["b", 7.0, 9.0, 0],
        ["other-root", 11.0, 12.5, -1],
    ]
    summary = summarize(spans)
    assert summary["root"] == {"count": 1, "total": 10.0, "self": 4.0}
    assert summary["a"] == {"count": 1, "total": 3.0, "self": 2.0}
    assert summary["leaf"] == {"count": 1, "total": 1.0, "self": 1.0}
    assert summary["b"] == {"count": 2, "total": 3.0, "self": 3.0}
    assert summary["other-root"]["self"] == 1.5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 85) == 85
    assert percentile(values, 98) == 98
    assert percentile([3.0], 98) == 3.0


def test_traced_run_matches_untraced_and_self_times_add_up():
    import repro.workflow.runner as runner
    from repro.apps.suite import build_workflow
    from repro.core.configs import P_LOCR
    from repro.sim.engine import Engine

    spec = build_workflow("micro-2k", 8, iterations=1)
    original_run, original_workflow = Engine.run, runner.run_workflow
    plain = runner.run_workflow(spec, P_LOCR).makespan
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_workflow(spec, P_LOCR).makespan
    finally:
        tracer.uninstall()
    assert Engine.run is original_run and runner.run_workflow is original_workflow
    assert traced == plain
    summary = summarize(tracer.spans)
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(entry["self"] for entry in summary.values()) == pytest.approx(roots)
    metrics = tracer.layer_metrics()
    assert metrics["runner.runs"] == 1
    assert metrics["flow.solves"] == summary["flow.solve"]["count"] > 0
    assert metrics["engine.events"] > 0
