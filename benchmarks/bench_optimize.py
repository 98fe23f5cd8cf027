"""Benchmarks: the global placement optimizer (not a paper artifact).

``repro.core.optimize`` runs inside CI (``validate`` re-derives Table II
every push) and is meant to be cheap enough to call per service pass —
an optimizer that costs more than the simulations it plans is useless.
Every candidate price is a simulation result, so this file tunes the
18-workflow suite into one tuner, outside the timed region, and then
times the decision layer on it: price every candidate from the tuner's
reports, solve
for the cheapest exact-frontier plan under a 300 GB PMEM budget, and
enumerate the ε-frontier.  A hard wall guard keeps that layer **well under a second**,
so the simulations always dominate a planning call.

Work counters (candidates, frontier points) ride along as ``extra_info``
so a wall-time move is attributable: more candidates is a bigger
decision space, more points a wider trade-off.
"""

from repro.apps.suite import workflow_suite
from repro.core.autotune import ExhaustiveTuner
from repro.core.optimize.backends import solve
from repro.core.optimize.cli import build_scenario
from repro.core.optimize.pareto import enumerate_frontier
from repro.units import GB

#: Wall budget for one full price-plan-and-frontier pass over run results.
WALL_BUDGET_SECONDS = 0.5


def _suite_tuner():
    """A tuner holding the reports of the whole suite, and the suite keys."""
    tuner = ExhaustiveTuner()
    keys = []
    for entry in workflow_suite():
        tuner.tune(entry.spec)
        keys.append(f"{entry.family}@{entry.ranks}")
    return tuner, sorted(keys)


def _full_pass(tuner, keys):
    scenario = build_scenario(
        keys, pmem_budget_bytes=int(300 * GB), tuner=tuner
    )
    plan = solve(scenario)
    points, _truncated = enumerate_frontier(scenario, epsilon=0.02)
    return scenario, plan, points


def test_optimize_full_pass_under_wall_budget(benchmark):
    """Price + solve + frontier on the whole suite — the planning cost."""
    tuner, keys = _suite_tuner()  # simulated once, outside the timed region
    scenario, plan, points = benchmark.pedantic(
        _full_pass,
        args=(tuner, keys),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    median = benchmark.stats.stats.median
    assert median < WALL_BUDGET_SECONDS, (
        f"optimizer full pass took {median:.3f}s "
        f"(budget {WALL_BUDGET_SECONDS:.1f}s)"
    )
    assert plan.feasible
    assert points
    benchmark.extra_info.update(
        {
            "workflows": len(scenario.choices),
            "candidates": sum(len(c.candidates) for c in scenario.choices),
            "frontier_points": len(points),
        }
    )
