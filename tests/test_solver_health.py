"""DESIGN §5b "Solver health": the paper sweep's solve totals, pinned.

The figures DESIGN quotes (no capped exit among 5,994 non-empty solves,
70,554 fixed-point iterations) are exact counters of the deterministic
simulator, so they are asserted with ``==``.  A change that moves them
on purpose (a new iteration cap, another batching rule) re-records them
here and in DESIGN in the same change.
"""

from repro.apps.suite import workflow_suite
from repro.core.configs import ALL_CONFIGS
from repro.obs.capture import observe_workflow


def test_paper_sweep_solver_totals():
    at_cap = lookups = solves = iterations = 0
    for entry in workflow_suite():
        for config in ALL_CONFIGS:
            observation = observe_workflow(entry.spec, config)
            stats = observation.solver_stats
            at_cap += stats["solves_at_cap"]
            lookups += stats["solver_memo_hits"] + stats["solver_memo_misses"]
            solves += stats["solves"]
            iterations += observation.probes.counter_total("flow.solver_iterations")
    assert (at_cap, lookups, iterations) == (0, 5_994, 70_554)
    assert solves == lookups  # every solve of the sweep consults the memo
