"""Simulator-core benchmark baseline: record and guard.

Turns a pytest-benchmark JSON export (from ``benchmarks/bench_simulator.py``
and ``benchmarks/bench_headline.py``) into the committed
``BENCH_simcore.json`` baseline, and enforces it in CI:

* ``record``  — distill the raw export into the baseline schema (median
  wall seconds, events/s, solver iterations per run, memo hit rate) and
  write it.  An existing baseline's ``pre_pr_baseline`` block is carried
  forward and the speedups against it recomputed, so the headline
  "fast-path vs. original solver" ratio stays visible in the artifact.
* ``compare`` — check a fresh export against the committed baseline:
  wall-time medians must stay within ``--tolerance`` (default +/-20 %),
  events/s must stay above the baseline's absolute ``throughput_floors``
  (a ratchet recorded once and carried forward, so a slow creep across
  many PRs still trips it), and the deterministic work counters (solver
  iterations, events, memo hit rate, ``share()`` calls, solver classes,
  frontier points, objects left to the cyclic garbage collector,
  makespan) must not drift at all — a wall regression with unchanged
  counters is host noise or allocator churn, one *with* counter drift is
  a solver-strategy change and fails loudly either way.  Every benchmark
  in the run must have a baseline entry and vice versa: a benchmark the
  baseline does not know would otherwise run unguarded.

Usage::

    pytest benchmarks/bench_simulator.py benchmarks/bench_headline.py \
        --benchmark-only --benchmark-json=bench-raw.json
    python tools/bench_guard.py record bench-raw.json --out BENCH_simcore.json
    python tools/bench_guard.py compare bench-raw.json --baseline BENCH_simcore.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

#: Relative tolerance for wall-clock medians (host-speed dependent).
WALL_TOLERANCE = 0.20

#: Relative tolerance for deterministic work counters (iteration counts,
#: memo hit rates, simulated makespans).  These are properties of the
#: simulation, not the host; anything beyond float noise is a real change.
COUNTER_TOLERANCE = 1e-6

#: Counter fields carried into the baseline and guarded exactly.
COUNTER_FIELDS = (
    "solver_iterations_per_run",
    "events_per_run",
    "memo_hit_rate",
    "solves_at_cap",
    "share_calls",
    "solver_classes",
    "frontier_points",
    "cyclic_objects",
    "makespan",
)

#: Fraction of the measured events/s recorded as the absolute floor when
#: a baseline is first recorded (or a benchmark first appears).  Floors
#: are then carried forward verbatim — a ratchet, not a moving target.
FLOOR_FRACTION = 0.75


def distill(raw: Dict) -> Dict[str, Dict[str, float]]:
    """Reduce a pytest-benchmark export to the baseline's per-test schema."""
    out: Dict[str, Dict[str, float]] = {}
    for bench in raw["benchmarks"]:
        median = bench["stats"]["median"]
        extra = bench.get("extra_info", {})
        entry: Dict[str, float] = {"median_wall_seconds": median}
        if extra:
            if "events_executed" in extra:
                events = float(extra["events_executed"])
                entry["events_per_run"] = events
                entry["events_per_second"] = (
                    events / median if median > 0 else 0.0
                )
            if "solver_iterations" in extra:
                entry["solver_iterations_per_run"] = float(
                    extra["solver_iterations"]
                )
            for known in (
                "memo_hit_rate",
                "makespan",
                "solver_classes",
                "recomputes_coalesced",
            ):
                if known in extra:
                    entry[known] = float(extra[known])
            # Any other numeric extra_info rides along verbatim, so suites
            # with their own vocabulary (e.g. the service bench's
            # jobs_per_second / latency quantiles) land in the baseline
            # without this mapping growing a case per suite.  Only
            # COUNTER_FIELDS are guarded exactly; the rest is recorded.
            for key in sorted(extra):
                if key in ("events_executed", "solver_iterations"):
                    continue
                value = extra[key]
                if key not in entry and isinstance(value, (int, float)) and (
                    not isinstance(value, bool)
                ):
                    entry[key] = float(value)
        out[bench["name"]] = entry
    return out


def load_json(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record(args: argparse.Namespace) -> int:
    benchmarks = distill(load_json(args.export))
    baseline: Dict = {"bench": args.name, "benchmarks": benchmarks}
    previous: Optional[Dict] = None
    try:
        previous = load_json(args.out)
    except (OSError, ValueError):
        pass
    pre_pr = (previous or {}).get("pre_pr_baseline")
    if pre_pr:
        baseline["pre_pr_baseline"] = pre_pr
        speedups = {}
        for name, entry in pre_pr.items():
            now = benchmarks.get(name, {}).get("median_wall_seconds")
            then = entry.get("median_wall_seconds")
            if now and then:
                speedups[name] = then / now
        baseline["speedup_vs_pre_pr"] = speedups
    # Throughput floors ratchet: existing floors survive re-recording;
    # benchmarks without one get FLOOR_FRACTION of the measured rate.
    floors = dict((previous or {}).get("throughput_floors", {}))
    for name, entry in benchmarks.items():
        rate = entry.get("events_per_second")
        if rate and name not in floors:
            floors[name] = round(rate * FLOOR_FRACTION)
    if floors:
        baseline["throughput_floors"] = floors
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(benchmarks)} benchmark(s))")
    for name, ratio in baseline.get("speedup_vs_pre_pr", {}).items():
        print(f"  {name}: {ratio:.2f}x vs pre-PR solver")
    return 0


def compare(args: argparse.Namespace) -> int:
    current = distill(load_json(args.export))
    document = load_json(args.baseline)
    baseline = document["benchmarks"]
    floors = document.get("throughput_floors", {})
    failures = [
        f"{name}: not in the baseline, so it is unguarded; re-record "
        "the baseline with `record`"
        for name in sorted(set(current) - set(baseline))
    ]
    for name, expected in sorted(baseline.items()):
        measured = current.get(name)
        if measured is None:
            failures.append(f"{name}: missing from the current run")
            continue
        then = expected["median_wall_seconds"]
        now = measured["median_wall_seconds"]
        drift = (now - then) / then
        marker = "OK"
        if abs(drift) > args.tolerance:
            marker = "FAIL"
            failures.append(
                f"{name}: median wall {now * 1e3:.2f} ms vs baseline "
                f"{then * 1e3:.2f} ms ({drift:+.1%}, tolerance "
                f"+/-{args.tolerance:.0%})"
            )
        floor = floors.get(name)
        rate = measured.get("events_per_second", 0.0)
        if floor and rate < floor:
            marker = "FAIL"
            failures.append(
                f"{name}: {rate:.0f} events/s is below the committed "
                f"floor of {floor:.0f} — absolute throughput regression"
            )
        print(f"{marker:4} {name}: wall {now * 1e3:.2f} ms ({drift:+.1%})")
        for field in COUNTER_FIELDS:
            if field not in expected:
                continue
            if field not in measured:
                failures.append(
                    f"{name}: guarded counter {field} missing from the "
                    "current run"
                )
                continue
            want, got = expected[field], measured[field]
            scale = max(abs(want), abs(got), 1.0)
            if abs(got - want) / scale > COUNTER_TOLERANCE:
                failures.append(
                    f"{name}: {field} drifted {want} -> {got}; work "
                    "counters are deterministic, so this is a solver "
                    "behaviour change, not noise"
                )
    if failures:
        print("\nbenchmark guard failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} benchmark(s) within guard")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    rec = sub.add_parser("record", help="distill an export into the baseline")
    rec.add_argument("export", help="pytest-benchmark JSON export")
    rec.add_argument("--out", default="BENCH_simcore.json")
    rec.add_argument(
        "--name",
        default="simcore",
        help="suite tag written to the baseline's 'bench' field",
    )
    rec.set_defaults(func=record)

    cmp_ = sub.add_parser("compare", help="guard an export against the baseline")
    cmp_.add_argument("export", help="pytest-benchmark JSON export")
    cmp_.add_argument("--baseline", default="BENCH_simcore.json")
    cmp_.add_argument("--tolerance", type=float, default=WALL_TOLERANCE)
    cmp_.set_defaults(func=compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
