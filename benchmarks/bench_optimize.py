"""Benchmarks: the global placement optimizer (not a paper artifact).

``repro.core.optimize`` runs inside CI (``validate`` re-derives Table II
every push) and is meant to be cheap enough to call per service pass —
an optimizer that costs more than the simulations it plans is useless.
Every candidate price is a simulation result, so this file simulates the
18-workflow suite once, outside the timed region, and then times the
decision layer on it: price every candidate from those results, solve
the exact backend under a 300 GB PMEM budget, and enumerate the
ε-frontier.  A hard wall guard keeps that layer **well under a second**,
so the simulations always dominate a planning call.

Work counters (candidates, branch-and-bound nodes, frontier points)
ride along as ``extra_info`` so a wall-time move is attributable: more
nodes is a weaker bound, more candidates is a bigger decision space.
"""

from repro.apps.suite import workflow_suite
from repro.core.configs import ALL_CONFIGS
from repro.core.optimize.backends import BranchBoundOptimizer
from repro.core.optimize.cli import build_scenario
from repro.core.optimize.pareto import enumerate_frontier
from repro.units import GB
from repro.workflow.runner import run_workflow

#: Wall budget for one full price-plan-and-frontier pass over run results.
WALL_BUDGET_SECONDS = 0.5


def _suite_results():
    """``{"family@ranks": {label: RunResult}}`` for the whole suite."""
    return {
        f"{entry.family}@{entry.ranks}": {
            config.label: run_workflow(entry.spec, config)
            for config in ALL_CONFIGS
        }
        for entry in workflow_suite()
    }


def _full_pass(results):
    scenario = build_scenario(
        sorted(results),
        pmem_budget_bytes=int(300 * GB),
        precomputed=results,
    )
    plan = BranchBoundOptimizer().solve(scenario)
    points, _truncated = enumerate_frontier(scenario, epsilon=0.02)
    return scenario, plan, points


def test_optimize_full_pass_under_wall_budget(benchmark):
    """Price + solve + frontier on the whole suite — the planning cost."""
    results = _suite_results()  # simulated once, outside the timed region
    scenario, plan, points = benchmark.pedantic(
        _full_pass,
        args=(results,),
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
            "bb_nodes": plan.nodes_explored,
            "frontier_points": len(points),
        }
    )
