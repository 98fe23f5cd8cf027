"""Benchmarks: the trace-analytics engine (not a paper artifact).

``repro.obs.explain`` runs inside every stored campaign cell (the
attribution record), inside ``campaign diff``, and inside every service
pass that annotates regret entries — so the analytics themselves must
stay cheap relative to the simulations they explain.  This file tracks:

* the cost of a full explain pass (observe + critical path + buckets +
  utilization) on a mid-size workflow;
* the pure-analysis cost of re-walking an already-captured trace's leaf
  records, with a hard wall guard: blame attribution over one run's
  records must finish in **well under a second**, or attaching it to
  every campaign cell at capture time stops being free;
* the observed-cell cost ratio: storing a campaign cell
  (:func:`~repro.obs.campaign.run_spec_cell`: observed runs, attribution
  and payload under a ``HostMeter``) against plain
  :func:`~repro.workflow.runner.run_workflow` calls of the same four
  configurations, over the six 8-rank cells a cold service pass runs.
  The ratio must stay at or under :data:`CELL_RATIO_BUDGET`.

Work counters (records, segments, bucket count) ride along as
``extra_info`` so a wall-time move is attributable: more records is a
bigger workflow, more segments per record is an engine regression.
"""

import os
import time

from repro.apps.suite import FAMILIES, build_workflow
from repro.core.configs import ALL_CONFIGS, SchedulerConfig
from repro.obs.campaign import SUITE_PRESETS, run_spec_cell
from repro.obs.capture import observe_workflow
from repro.obs.explain import (
    critical_path,
    explain_observation,
    path_context,
)
from repro.workflow.runner import run_workflow

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Wall budget for one pure-analysis pass over a captured trace.
WALL_BUDGET_SECONDS = 0.5

#: Budget for (stored cell cost) / (plain runs of the same configs).
CELL_RATIO_BUDGET = 1.6

#: The cells of a cold service pass: one 8-rank cell per workload family,
#: at the micro preset's two iterations.  These must follow the
#: ``service-cold`` workload (``COLD_CELLS`` and ``SERVICE_ITERATIONS`` in
#: ``perfbench/workloads.py``), which is defined the same way.
_CELLS = tuple((family, 8) for family in FAMILIES)
_CELL_ITERATIONS = SUITE_PRESETS["micro"].iterations

#: Timed rounds per cell (after one untimed warm-up round).
_CELL_ROUNDS = 11

_SPEC = build_workflow("miniamr+matmult", ranks=16, iterations=4)
_CONFIG = SchedulerConfig.from_label("P-LocR")


def test_explain_full_pass(benchmark):
    """Observe + explain: what ``repro-obs explain run`` pays per config."""
    explanation = benchmark.pedantic(
        lambda: explain_observation(observe_workflow(_SPEC, _CONFIG)),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert explanation.segments
    benchmark.extra_info.update(
        {
            "segments": len(explanation.segments),
            "buckets": len(explanation.buckets),
        }
    )


def test_critical_path_walk_under_wall_budget(benchmark):
    """Pure analysis on a pre-captured trace — the reusable hot path."""
    observation = observe_workflow(_SPEC, _CONFIG)
    records = observation.tracer.records
    makespan = observation.result.makespan
    context = path_context(_CONFIG.label)
    segments = benchmark.pedantic(
        critical_path,
        args=(records, makespan, context),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    median = benchmark.stats.stats.median
    assert median < WALL_BUDGET_SECONDS, (
        f"critical-path walk took {median:.3f}s "
        f"(budget {WALL_BUDGET_SECONDS:.1f}s)"
    )
    assert segments[0].start == 0.0
    benchmark.extra_info.update(
        {
            "records": len(records),
            "segments": len(segments),
        }
    )


def _cell_costs():
    """Best plain and stored-cell CPU seconds per cell, summed over cells.

    Plain and stored runs of one cell alternate, so a slow spell of a
    shared host lands on both sides; each side keeps its fastest round.
    CPU time (not wall time) leaves out the time the process waits for a
    core, which says nothing about either path.
    """
    specs = [
        (family, ranks, build_workflow(family, ranks, iterations=_CELL_ITERATIONS))
        for family, ranks in _CELLS
    ]
    clock = time.process_time
    best = {}
    for round_index in range(_CELL_ROUNDS + 1):
        for family, ranks, spec in specs:
            started = clock()
            for config in ALL_CONFIGS:
                run_workflow(spec, config)
            plain = clock() - started
            started = clock()
            run_spec_cell(spec, family=family, ranks=ranks)
            stored = clock() - started
            if round_index == 0:
                continue
            previous = best.get(family, (plain, stored))
            best[family] = (min(previous[0], plain), min(previous[1], stored))
    plain_total = sum(plain for plain, _ in best.values())
    stored_total = sum(stored for _, stored in best.values())
    return plain_total, stored_total


def test_observed_cell_cost_ratio(benchmark):
    """A stored cell costs at most CELL_RATIO_BUDGET x its plain runs."""
    plain, stored = benchmark.pedantic(
        _cell_costs, rounds=1, iterations=1, warmup_rounds=0
    )
    ratio = stored / plain
    benchmark.extra_info.update(
        {
            "cells": len(_CELLS),
            "plain_cpu_seconds": plain,
            "cell_cpu_seconds": stored,
            "cell_plain_ratio": ratio,
        }
    )
    assert ratio <= CELL_RATIO_BUDGET, (
        f"a stored cell costs {ratio:.2f}x its plain runs "
        f"({stored:.3f}s vs {plain:.3f}s; budget {CELL_RATIO_BUDGET}x)"
    )
