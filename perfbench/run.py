"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up is repeated and its
median reported, then whole passes of the workload run until ``--seconds``
have elapsed.  Each repeated item is timed by its mean over the passes,
and every time is rescaled by the host-speed probe (see ``probe.py``).  ``--trace 1`` runs one untraced pass and two traced passes
and reports the per-layer metrics, the tracing overhead and a self-check
(traced outputs equal untraced outputs bit for bit; deterministic counters
repeat across the two traced passes).  The spans of the first traced pass
are written to ``.perfbench/spans-<workload>.json``.

Everything runs in this one process with ``jobs=1``: no worker pool and no
extra threads.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
``src/repro`` sources next to this directory the command exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from checks import load_fixture, percentile
from probe import SpeedProbe, no_probe
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Set-ups timed before the first pass; ``setup_s`` is their median.
SETUP_REPS = 5

#: End-to-end metrics reported by ``--trace 0``: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "sim_runs_per_s": "1/s",
    "run_p50_ms": "ms",
    "run_p85_ms": "ms",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p98_ms": "ms",
    "peak_rss_mb": "MB",
    "paper_hits": "count",
}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code: solver backend,
    numpy, Python and processor count."""
    from repro.sim.flow import default_solver, numpy_available

    return {
        "solver": default_solver(),
        "numpy": numpy_available(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _diff_outputs(first, other) -> List[str]:
    """Keys whose makespans differ (bit for bit) between two passes."""
    return sorted(
        key for key in set(first) | set(other) if first.get(key) != other.get(key)
    )


def import_seconds(name: str) -> float:
    """Time ``load()`` of workload *name* in a fresh interpreter: the import
    cost of its layers, which this process has already paid."""
    code = (
        "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
        "from workloads import WORKLOADS; w = WORKLOADS[{name!r}](0, ''); "
        "t = time.perf_counter(); w.load(); print(time.perf_counter() - t)"
    ).format(src=SRC, here=HERE, name=name)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def mean_times(passes, attribute: str) -> List[float]:
    """Each item's mean host time over the passes that ran it (an item is a
    run, a cell, a submission slot or a round, repeated by every pass)."""
    times: Dict[str, List[float]] = {}
    for result in passes:
        for item, seconds in getattr(result, attribute).items():
            times.setdefault(item, []).append(seconds)
    return [statistics.fmean(times[item]) for item in sorted(times)]


def measured_run(workload, seconds: float) -> Tuple[Dict[str, float], int, int, List[str]]:
    clock = time.perf_counter
    setups: List[float] = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            workload.discard(state)
        loaded = import_seconds(workload.name)
        t0 = clock()
        state = workload.prepare(0)
        setups.append(loaded + clock() - t0)
    probe = SpeedProbe()
    passes = []
    started = clock()
    while True:
        probe()
        passes.append(workload.run_pass(state, probe))
        workload.discard(state)
        if clock() - started >= seconds:
            break
        state = workload.prepare(len(passes))
    probe()
    slowdown = probe.slowdown()

    problems = [p for result in passes for p in result.problems]
    failed = sum(result.failed for result in passes)
    for index, result in enumerate(passes[1:], start=1):
        for key in _diff_outputs(passes[0].outputs, result.outputs):
            failed += 1
            problems.append(f"pass {index}: {key} makespans depend on run order")
        if result.paper_hits != passes[0].paper_hits:
            problems.append(f"pass {index}: paper_hits {result.paper_hits}")
    run_times = [t / slowdown for t in mean_times(passes, "run_times")]
    job_times = [t / slowdown for t in mean_times(passes, "job_times")]
    if not run_times or not job_times:
        raise SystemExit("no operation completed; nothing to measure")
    raw_cost = sum(mean_times(passes, "steps"))
    cost = raw_cost / slowdown
    metrics = {
        "setup_s": statistics.median(setups) / slowdown,
        "sim_runs_per_s": passes[0].results / cost,
        "run_p50_ms": percentile(run_times, 50) * 1e3,
        "run_p85_ms": percentile(run_times, 85) * 1e3,
        "jobs_per_s": passes[0].jobs / cost,
        "job_p50_ms": percentile(job_times, 50) * 1e3,
        "job_p98_ms": percentile(job_times, 98) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "paper_hits": passes[0].paper_hits,
    }
    _log(
        f"{workload.name}: {len(passes)} pass(es) of {passes[0].results} results, "
        f"{len(run_times)} run items, {len(job_times)} job items; pass walls "
        f"{[round(r.wall_s, 3) for r in passes]}; mean pass cost {raw_cost:.4f}s; "
        f"host slowdown {slowdown:.4f} from {len(probe.samples)} probes"
    )
    attempted = sum(result.attempted for result in passes)
    return metrics, attempted, min(failed, attempted), problems


def traced_run(workload, seed: int) -> Tuple[Dict[str, float], int, int, List[str]]:
    states = [workload.prepare(index) for index in range(3)]
    untraced = workload.run_pass(states[0], no_probe)
    workload.discard(states[0])
    tracer = Tracer()
    tracer.install()
    try:
        first = workload.run_pass(states[1], no_probe)
        metrics = tracer.layer_metrics()
        counters = tracer.deterministic_counters()
        spans = tracer.spans
        tracer.reset()
        second = workload.run_pass(states[2], no_probe)
        repeat = tracer.deterministic_counters()
    finally:
        tracer.uninstall()
    for state in states[1:]:
        workload.discard(state)
    tracer.spans = spans

    passes = (untraced, first, second)
    problems = [p for result in passes for p in result.problems]
    failed = sum(result.failed for result in passes)
    for label, result in (("traced", first), ("second traced", second)):
        for key in _diff_outputs(untraced.outputs, result.outputs):
            failed += 1
            problems.append(f"{label} pass: {key} makespans differ from untraced")
    for name in sorted(counters):
        if counters[name] != repeat[name]:
            failed += 1
            problems.append(f"counter {name} did not repeat: {counters[name]} vs {repeat[name]}")
    seed_counters = load_fixture("seed_counters.json")[workload.name]
    mismatches = 0
    for name, expected in sorted(seed_counters.items()):
        if counters.get(name) != expected:
            mismatches += 1
            _log(f"counter {name} = {counters.get(name)} (seed code: {expected})")
    metrics["trace.overhead_ratio"] = first.wall_s / untraced.wall_s
    metrics["trace.spans"] = len(spans)
    metrics["trace.seed_counter_mismatches"] = mismatches
    path = os.path.join(WORKDIR, f"spans-{workload.name}.json")
    tracer.write_chrome_trace(
        path, {"workload": workload.name, "seed": seed, "environment": environment()}
    )
    _log(
        f"{workload.name}: untraced {untraced.wall_s:.3f}s, traced "
        f"{first.wall_s:.3f}s / {second.wall_s:.3f}s; spans written to {path}"
    )
    attempted = sum(result.attempted for result in passes)
    return metrics, attempted, min(failed, attempted), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"perfbench: no repro sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        _log(f"perfbench: unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}")
        return 2
    rundir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, rundir)
        workload.load()
        _log(json.dumps({"environment": environment()}))
        if args.trace:
            metrics, attempted, failed, problems = traced_run(workload, args.seed)
            units = LAYER_METRICS
        else:
            metrics, attempted, failed, problems = measured_run(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for problem in problems:
        _log(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
