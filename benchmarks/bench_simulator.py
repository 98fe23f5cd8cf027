"""Benchmarks: raw simulator throughput (not a paper artifact).

Tracks the cost of the discrete-event substrate itself so regressions in
the flow solver or engine are visible: one medium workflow end to end, one
solver-heavy small-object workflow, and the fast solver's memo-miss path
alone (the recorded misses of one paper run, replayed without the memo).

Each simulator benchmark attaches its work counters (events, recomputes,
solver iterations, memo hit rate, capped solves, makespan) as ``extra_info`` so the JSON
artifact carries the *why* behind a wall-time move — a regression with an
unchanged iteration count is allocator churn; one with a collapsed memo
hit rate is a solver-strategy bug.  ``tools/bench_guard.py`` turns the
pytest-benchmark JSON into the committed ``BENCH_simcore.json`` baseline
and enforces the +/-20 % guard in CI.
"""

import repro.sim.flow as flow_module
from repro.apps.gtc import gtc_workflow
from repro.apps.microbench import micro_workflow
from repro.apps.suite import build_workflow
from repro.core.configs import P_LOCR, S_LOCW
from repro.metrics.timeline import render_timeline
from repro.obs.capture import observe_workflow
from repro.sim.flow import SOLVER_FAST, solve_flow_set
from repro.units import KiB
from repro.workflow.runner import run_workflow


def _attach_work_counters(benchmark, spec, config):
    """One observed (untimed) run: latch the simulator's cost signals."""
    observation = observe_workflow(spec, config)
    probes = observation.probes
    stats = observation.solver_stats
    hits = stats.get("solver_memo_hits", 0)
    misses = stats.get("solver_memo_misses", 0)
    attempts = hits + misses
    benchmark.extra_info.update(
        {
            "makespan": observation.result.makespan,
            "events_executed": probes.counter_total("engine.events_executed"),
            "flow_recomputes": probes.counter_total("flow.recomputes"),
            "solver_iterations": probes.counter_total("flow.solver_iterations"),
            "solver_classes": stats.get("solver_classes", 0),
            "memo_hit_rate": (hits / attempts) if attempts else 0.0,
            "recomputes_coalesced": stats.get("recomputes_coalesced", 0),
            "solves_at_cap": stats.get("solves_at_cap", 0),
        }
    )


def test_simulate_gtc_workflow(benchmark):
    spec = gtc_workflow(ranks=16, iterations=5)
    result = benchmark.pedantic(
        run_workflow, args=(spec, P_LOCR), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.makespan > 0
    _attach_work_counters(benchmark, spec, P_LOCR)


def test_simulate_small_object_workflow(benchmark):
    spec = micro_workflow(2 * KiB, ranks=16, iterations=5)
    result = benchmark.pedantic(
        run_workflow, args=(spec, S_LOCW), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result.makespan > 0
    _attach_work_counters(benchmark, spec, S_LOCW)


def test_render_timeline_wide(benchmark):
    """Guard for the chronological-sweep renderer: a record-heavy trace at
    a wide terminal width used to cost O(width x records) per rank."""
    spec = gtc_workflow(ranks=24, iterations=10)
    result = run_workflow(spec, P_LOCR, trace=True)
    rendered = benchmark.pedantic(
        render_timeline,
        args=(result.tracer,),
        kwargs={"width": 400},
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert rendered.count("\n") >= 2 * spec.ranks


def _record_miss_solves(monkeypatch, spec, config):
    """The solves of one run that missed the memo, each as its flow list
    plus the flows' starting duties."""
    misses = []
    original = flow_module.solve_flow_set

    def recording(flows, **kwargs):
        duties = [f.duty for f in flows]
        result = original(flows, **kwargs)
        if not result.memo_hit:
            misses.append((list(flows), duties))
        return result

    monkeypatch.setattr(flow_module, "solve_flow_set", recording)
    run_workflow(spec, config)
    monkeypatch.undo()
    return misses


def _replay(misses):
    """Re-solve every recorded miss from its starting duties, memo off;
    returns the total fixed-point iterations and duty classes."""
    iterations = classes = 0
    for flows, duties in misses:
        for f, duty in zip(flows, duties):
            f.duty = duty
        result = solve_flow_set(flows, solver=SOLVER_FAST, memo=None)
        iterations += result.iterations
        classes += result.classes
    return iterations, classes


def test_solver_miss_replay(benchmark, monkeypatch):
    """The solve kernel without engine, memo or runner: every memo-miss
    solve of gtc+readonly@24 under P-LocR.  Resources keep their end-of-run
    state, so the replay is deterministic but need not retrace the run's
    own solves.  ``share_calls`` is iterations x share groups summed over
    the solves: it moves only if the kernel's grouping does, as
    ``solver_classes`` (duty classes summed over the solves) moves only if
    the class partition does."""
    misses = _record_miss_solves(monkeypatch, build_workflow("gtc+readonly", 24), P_LOCR)
    iterations, classes = benchmark.pedantic(
        _replay, args=(misses,), rounds=5, iterations=1, warmup_rounds=1
    )
    calls = []
    resource_types = {type(r) for flows, _ in misses for f in flows for r in f.resources}
    for rtype in resource_types:

        def counting(resource, load, flow, original=rtype.share):
            calls.append(resource)
            return original(resource, load, flow)

        monkeypatch.setattr(rtype, "share", counting)
    assert _replay(misses) == (iterations, classes)
    benchmark.extra_info.update(
        {
            "solves": len(misses),
            "solver_iterations": iterations,
            "solver_classes": classes,
            "share_calls": len(calls),
        }
    )
