"""The global placement optimizer: model, backend, frontier, validation.

Three claim groups:

* **Pareto-front properties** — no dominated points, deterministic
  (byte-identical) serialization, ε-coalescing only shrinks the set.
* **Pricing agreement** — the simulation pricer's Table I candidate
  prices equal the reference-solver-backed simulator run for run;
  injected (precomputed) prices round-trip exactly.
* **Table II re-derivation** — the optimizer's per-workflow argmin,
  priced from the session oracle reports, matches the paper on 17/18
  panels exactly and all 18 within the ε-band, with the one divergence
  being the documented beats-the-paper point (miniamr+matmult@16).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.apps.suite import build_workflow
from repro.core.configs import ALL_CONFIGS
from repro.core.optimize.backends import BranchBoundOptimizer
from repro.core.optimize.cli import (
    VALIDATE_EPSILON,
    build_scenario,
    main as optimize_main,
)
from repro.core.optimize.model import retained_pmem_bytes
from repro.core.optimize.pareto import (
    FrontierPoint,
    coalesce,
    dominates,
    enumerate_frontier,
    frontier_json,
    frontier_payload,
    pareto_filter,
    validate_frontier,
)
from repro.core.optimize.pricing import SimulationPricer
from repro.core.recommend import RecommendationEngine
from repro.units import GB
from repro.workflow.runner import run_workflow

#: The one panel where the simulator-backed optimizer beats the paper's
#: recommendation (see tests/test_paper_reproduction.py NEAR_MISS_PANELS).
BEATS_PAPER_KEY = "miniamr+matmult@16"


def _precomputed(suite_reports):
    return {
        f"{family}@{ranks}": dict(report.results)
        for (family, ranks), report in suite_reports.items()
    }


# ----------------------------------------------------------------------
# Pareto-front properties.
# ----------------------------------------------------------------------
def _point(makespan, pmem, remote, tag):
    return FrontierPoint(makespan, pmem, remote, ((tag, tag),))


def test_pareto_filter_removes_dominated_points():
    points = [
        _point(1.0, 100, 10, "a"),
        _point(2.0, 100, 10, "b"),  # dominated by a
        _point(1.0, 50, 20, "c"),
        _point(0.5, 200, 10, "d"),
        _point(0.5, 200, 10, "e"),  # duplicate objectives of d
    ]
    kept = pareto_filter(points)
    assert [p.selections[0][0] for p in kept] == ["d", "c", "a"]
    for i, a in enumerate(kept):
        for j, b in enumerate(kept):
            assert i == j or not dominates(a.objectives, b.objectives)


def test_pareto_filter_is_order_independent():
    points = [
        _point(float(i), 100 - i, (i * 7) % 13, f"p{i}") for i in range(20)
    ]
    assert pareto_filter(points) == pareto_filter(list(reversed(points)))


def test_epsilon_coalescing_shrinks_monotonically():
    points = pareto_filter(
        [_point(1.0 + 0.001 * i, 1000 - i, 0, f"p{i}") for i in range(100)]
    )
    sizes = [
        len(coalesce(points, epsilon)) for epsilon in (0.0, 0.001, 0.01, 0.1)
    ]
    assert sizes[0] == len(points)
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < sizes[0]


def test_frontier_json_is_byte_identical_and_schema_valid(suite_reports):
    def build():
        scenario = build_scenario(
            ["micro-64mb@16", "miniamr+matmult@16", "gtc+readonly@16"],
            precomputed=_precomputed(suite_reports),
        )
        points, truncated = enumerate_frontier(scenario, epsilon=0.0)
        return scenario, frontier_payload(scenario, points, 0.0, truncated)

    scenario, payload = build()
    _, payload_again = build()
    assert validate_frontier(payload) == []
    assert frontier_json(payload) == frontier_json(payload_again)
    # The acceptance scenario: >= 3 non-dominated points, and the
    # heuristic's plan is not the frontier's makespan-optimal point.
    assert len(payload["points"]) >= 3
    optimal = payload["points"][0]
    heuristic = {
        choice.key: choice.heuristic_candidate.key
        for choice in scenario.choices
    }
    assert heuristic != optimal["selections"]
    assert optimal["selections"][BEATS_PAPER_KEY] == "P-LocR"
    assert heuristic[BEATS_PAPER_KEY] == "S-LocW"
    # Every chosen point carries an explain-style why line per workflow.
    for record in payload["points"]:
        assert set(record["why"]) == set(record["selections"])
        assert all(record["why"].values())


def test_validate_frontier_flags_dominated_and_unsorted():
    bad = {
        "schema": "repro.optimize.frontier/v1",
        "points": [
            {
                "makespan_seconds": 2.0,
                "pmem_bytes": 10,
                "remote_bytes": 5,
                "selections": {"a@8": "S-LocW"},
                "why": {"a@8": "-"},
            },
            {
                "makespan_seconds": 1.0,
                "pmem_bytes": 5,
                "remote_bytes": 5,
                "selections": {"a@8": "P-LocR"},
                "why": {"a@8": "-"},
            },
        ],
    }
    problems = validate_frontier(bad)
    assert any("dominated" in p for p in problems)
    assert any("not sorted" in p for p in problems)


# ----------------------------------------------------------------------
# Pricing agreement with the reference-backed simulator.
# ----------------------------------------------------------------------
def test_simulation_pricer_matches_reference_solver(monkeypatch):
    """Optimizer prices == reference-solver simulation, all 4 configs."""
    spec = build_workflow("micro-2k", ranks=8)
    priced = SimulationPricer().price(spec, "micro-2k", 8)
    monkeypatch.setenv("REPRO_SOLVER", "reference")
    for config in ALL_CONFIGS:
        reference = run_workflow(spec, config)
        assert (
            priced.candidate(config.label).makespan_seconds
            == reference.makespan
        )


def test_precomputed_prices_round_trip(suite_reports):
    spec = build_workflow("gtc+readonly", ranks=8)
    table = _precomputed(suite_reports)
    priced = SimulationPricer(precomputed=table).price(spec, "gtc+readonly", 8)
    fresh = SimulationPricer().price(spec, "gtc+readonly", 8)
    for config in ALL_CONFIGS:
        assert (
            priced.candidate(config.label).makespan_seconds
            == table["gtc+readonly@8"][config.label].makespan
        )
    # Injected results price exactly like a fresh simulation, why lines
    # included.
    assert priced.candidates == fresh.candidates


def test_retained_bytes_semantics():
    spec = build_workflow("micro-64mb", ranks=16)
    serial = retained_pmem_bytes(spec, "serial")
    parallel = retained_pmem_bytes(spec, "parallel")
    assert serial == spec.total_data_bytes()
    assert parallel == 2 * spec.ranks * spec.snapshot.snapshot_bytes
    assert parallel < serial


# ----------------------------------------------------------------------
# Exact backend.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def budget_scenario(suite_reports):
    return build_scenario(
        ["micro-64mb@16", "micro-64mb@24", "miniamr+matmult@16"],
        pmem_budget_bytes=int(300 * GB),
        precomputed=_precomputed(suite_reports),
    )


def test_exact_backend_feasible_under_budget(budget_scenario):
    plan = BranchBoundOptimizer().solve(budget_scenario)
    budget = budget_scenario.limits.pmem_budget_bytes
    assert plan.feasible and plan.backend == "exact"
    picks = [plan.candidate_of(budget_scenario, key) for key, _ in plan.selections]
    assert [key for key, _ in plan.selections] == sorted(budget_scenario.keys)
    assert plan.pmem_bytes == sum(c.pmem_bytes for c in picks) <= budget
    # The budget binds: the per-workflow makespan argmin would overrun it.
    unconstrained = sum(
        choice.makespan_best.pmem_bytes for choice in budget_scenario.choices
    )
    assert unconstrained > budget


def test_exact_backend_matches_frontier_optimum(budget_scenario):
    plan = BranchBoundOptimizer().solve(budget_scenario)
    points, _ = enumerate_frontier(budget_scenario)
    assert points
    assert plan.makespan_seconds == min(p.makespan_seconds for p in points)


@pytest.fixture(scope="module")
def suite_scenario(suite_reports):
    """The whole 18-workflow suite, unbudgeted, priced from the oracle."""
    table = _precomputed(suite_reports)
    return build_scenario(sorted(table), precomputed=table)


def test_exact_backend_unconstrained_is_per_workflow_argmin(
    suite_scenario, suite_reports
):
    plan = BranchBoundOptimizer().solve(suite_scenario)
    expected = {
        f"{family}@{ranks}": report.best_config.label
        for (family, ranks), report in suite_reports.items()
    }
    assert len(expected) == 18
    assert dict(plan.selections) == expected


def test_infeasible_budget_reported_not_raised(suite_reports):
    scenario = build_scenario(
        ["micro-64mb@16"],
        pmem_budget_bytes=1,
        precomputed=_precomputed(suite_reports),
    )
    plan = BranchBoundOptimizer().solve(scenario)
    assert not plan.feasible
    points, _ = enumerate_frontier(scenario)
    assert points == []


# ----------------------------------------------------------------------
# Table II re-derivation (18/18 within the ε-band).
# ----------------------------------------------------------------------
def test_table2_rederivation(suite_entries, suite_reports):
    pricer = SimulationPricer(precomputed=_precomputed(suite_reports))
    strict = 0
    beats = []
    for entry in suite_entries:
        choices = pricer.price(entry.spec, entry.family, entry.ranks)
        best = choices.makespan_best
        paper = choices.candidate(entry.paper_best)
        assert paper.makespan_seconds <= best.makespan_seconds * (
            1.0 + VALIDATE_EPSILON
        ), f"{choices.key}: paper pick outside the epsilon band"
        if best.key == entry.paper_best:
            strict += 1
        else:
            beats.append(choices.key)
    assert strict == 17
    assert beats == [BEATS_PAPER_KEY]


# ----------------------------------------------------------------------
# Engine cache: identical results on/off (the satellite fix).
# ----------------------------------------------------------------------
def test_engine_cache_does_not_change_results(suite_entries):
    cached = RecommendationEngine(cache=True)
    uncached = RecommendationEngine(cache=False)
    for entry in suite_entries:
        for _ in range(2):  # second pass hits the cache
            assert (
                cached.recommend(entry.spec).config
                == uncached.recommend(entry.spec).config
            )
            assert cached.estimate_makespan(
                entry.spec
            ) == uncached.estimate_makespan(entry.spec)
    info = cached.cache_info()
    assert info["hits"] > 0
    assert info["entries"] == len(suite_entries)
    assert uncached.cache_info() == {
        "hits": 0,
        "misses": 0,
        "entries": 0,
        "token": 0,
    }
    token = cached.invalidate_cache()
    assert token == 1
    assert cached.cache_info()["entries"] == 0


# ----------------------------------------------------------------------
# CLI smoke.
# ----------------------------------------------------------------------
def test_cli_pareto_and_solve_smoke(tmp_path, capsys):
    frontier_path = tmp_path / "frontier.json"
    rc = optimize_main(
        [
            "pareto",
            "--workflows",
            "micro-64mb@8",
            "micro-2k@8",
            "--epsilon",
            "0.01",
            "--out",
            str(frontier_path),
        ]
    )
    assert rc == 0
    payload = json.loads(frontier_path.read_text())
    assert validate_frontier(payload) == []
    assert payload["heuristic"]["selections"]

    plan_path = tmp_path / "plan.json"
    rc = optimize_main(
        [
            "solve",
            "--workflows",
            "micro-64mb@8",
            "--out",
            str(plan_path),
        ]
    )
    assert rc == 0
    plan = json.loads(plan_path.read_text())
    assert plan["schema"] == "repro.optimize.plan/v2"
    assert "micro-64mb@8" in plan["assignments"]
    capsys.readouterr()


def test_cli_compare_reports_agreement(capsys):
    keys = ["micro-2k@8", "micro-64mb@8", "gtc+readonly@8"]
    rc = optimize_main(["compare", "--workflows", *keys])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    summary = re.fullmatch(
        r"optimizer vs heuristic: (\d)/3 agree", lines[0]
    )
    assert summary
    # One diff line per disagreeing workflow, each naming its key.
    assert len(lines) - 1 == 3 - int(summary.group(1))
    assert all(line.strip().split(":")[0] in keys for line in lines[1:])


def test_cli_rejects_bad_workflow_key(capsys):
    assert optimize_main(["solve", "--workflows", "nosuch@8"]) == 2
    assert optimize_main(["solve", "--workflows", "micro-2k"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--pmem-budget", "nan"],
        ["solve", "--pmem-budget", "inf"],
        ["pareto", "--epsilon", "nan"],
        ["pareto", "--epsilon", "inf"],
    ],
    ids=lambda argv: f"{argv[1]}={argv[2]}",
)
def test_cli_rejects_non_finite_numbers_before_simulating(
    argv, monkeypatch, capsys
):
    def no_simulation(*_args, **_kwargs):
        raise AssertionError("simulated before rejecting the input")

    monkeypatch.setattr(
        "repro.core.optimize.pricing.run_workflow", no_simulation
    )
    with pytest.raises(SystemExit) as exit_info:
        optimize_main(argv + ["--workflows", "micro-2k@8"])
    assert exit_info.value.code == 2
    assert f"error: argument {argv[1]}: must be finite" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Service plan consumption.
# ----------------------------------------------------------------------
def test_service_scheduler_consumes_plan(tmp_path, suite_scenario):
    from repro.service.scheduler import ServiceScheduler

    plan = BranchBoundOptimizer().solve(suite_scenario).as_record(
        suite_scenario
    )
    scheduler = ServiceScheduler(root=str(tmp_path / "svc"), plan=plan)
    # Full-size cells: the plan priced the suite's own iteration counts.
    scheduler.submit_suite(
        "full", cells=[("micro-64mb", 8), ("micro-2k", 8)]
    )
    report = scheduler.run()
    assert report.executed == 2
    planned = {entry["key"]: entry for entry in report.regrets}
    for key in ("micro-64mb@8", "micro-2k@8"):
        assert planned[key]["plan"] == plan["assignments"][key]["config"]
        # Simulation-priced plans pick the cell's simulated winner.
        assert planned[key]["plan_regret"] == 0.0
    rendered = report.render_text()
    assert "plan " in rendered


def test_service_scheduler_ignores_plan_priced_at_other_iterations(
    tmp_path, suite_scenario
):
    from repro.apps.suite import build_workflow
    from repro.service.scheduler import ServiceScheduler

    plan = BranchBoundOptimizer().solve(suite_scenario).as_record(
        suite_scenario
    )
    assignment = plan["assignments"]["micro-64mb@8"]
    assert assignment["iterations"] == build_workflow("micro-64mb", 8).iterations
    scheduler = ServiceScheduler(root=str(tmp_path / "svc"), plan=plan)
    # The micro preset runs 2 iterations, not the suite's count the plan
    # priced: its cells are other workloads, so the plan must not apply.
    jobs = scheduler.submit_suite("micro")
    for job in jobs:
        assert scheduler._plan_assignment(job) is None
        assert scheduler._predict_seconds(job) == (
            scheduler._engine.estimate_makespan(scheduler._build_spec(job))
        )
    report = scheduler.run()
    assert report.executed == 2
    for entry in report.regrets:
        assert "plan" not in entry
        assert "plan_regret" not in entry


@pytest.mark.parametrize(
    "override",
    [
        {"matmul_dim": 512},
        {"stack_name": "novafs"},
        {"calibration": {"upi_bandwidth": 20 * GB}},
        {"configs": ["S-LocW", "P-LocR"]},
    ],
    ids=["matmul_dim", "stack_name", "calibration", "configs"],
)
def test_service_scheduler_ignores_plan_for_other_workloads(
    tmp_path, suite_scenario, override
):
    import dataclasses

    from repro.pmem.calibration import DEFAULT_CALIBRATION
    from repro.service.scheduler import ServiceScheduler

    plan = BranchBoundOptimizer().solve(suite_scenario).as_record(
        suite_scenario
    )
    scheduler = ServiceScheduler(root=str(tmp_path / "svc"), plan=plan)
    cells = [("miniamr+matmult", 8)]
    # The cell the plan priced (full size, defaults) gets its assignment.
    (priced,) = scheduler.submit_suite("full", cells=cells)
    assert scheduler._plan_assignment(priced) == (
        plan["assignments"]["miniamr+matmult@8"]
    )
    if "calibration" in override:
        override = {
            "calibration": {
                **dataclasses.asdict(DEFAULT_CALIBRATION),
                **override["calibration"],
            }
        }
    # Same family@ranks and iterations, another workload: no plan.
    (other,) = scheduler.submit_suite("full", cells=cells, **override)
    assert scheduler._plan_assignment(other) is None
    assert scheduler._predict_seconds(other) == (
        scheduler._engine.estimate_makespan(scheduler._build_spec(other))
    )


def test_service_scheduler_rejects_bad_plan_schema(tmp_path):
    from repro.errors import ConfigurationError
    from repro.service.scheduler import ServiceScheduler

    with pytest.raises(ConfigurationError):
        ServiceScheduler(
            root=str(tmp_path / "svc"), plan={"schema": "bogus/v0"}
        )
    # A v1 plan records no cell ids, so it could match no job: refuse it
    # and say how to get a current one.
    old_plan = {
        "schema": "repro.optimize.plan/v1",
        "assignments": {"micro-2k@8": {"config": "S-LocW"}},
    }
    with pytest.raises(ConfigurationError, match="re-run"):
        ServiceScheduler(root=str(tmp_path / "svc"), plan=old_plan)
