"""Record and check the exact pins of the benchmark workloads kept under tests/.

Three files under ``tests/fixtures/`` pin simulated work exactly:

* ``sweep_makespans.json`` -- every makespan of the 72-run paper sweep,
  compared with ``==`` by
  ``tests/test_determinism.py::test_paper_sweep_makespans_pinned_bit_for_bit``;
* ``sweep_seed_counters.json`` and ``service_cold_seed_counters.json`` --
  the deterministic per-layer counters of one traced ``perfbench`` pass
  of ``paper-sweep`` and of ``service-cold``, compared exactly by CI.

They are separate from ``perfbench/fixtures/``, which stay the
benchmark's 2 % reference.  Re-record them only for an intended change to
simulated results or solver work, and say why in the change log.

Usage, from the repository root (``--workload`` defaults to
``paper-sweep``)::

    python tools/sweep_pins.py makespans
    python perfbench/run.py --workload service-cold --seed 1 --trace 1 > trace.out
    python tools/sweep_pins.py counters trace.out --workload service-cold  # re-record
    python tools/sweep_pins.py check trace.out --workload service-cold     # exit 1 on any mismatch
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
MAKESPANS = os.path.join(FIXTURES, "sweep_makespans.json")
#: The pinned counters of each traced workload; the paper sweep's file
#: also names the deterministic counters every file pins.
COUNTERS = {
    "paper-sweep": os.path.join(FIXTURES, "sweep_seed_counters.json"),
    "service-cold": os.path.join(FIXTURES, "service_cold_seed_counters.json"),
}


def _write(path, document):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def record_makespans():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.apps.suite import workflow_suite
    from repro.core.configs import ALL_CONFIGS
    from repro.workflow.runner import run_workflow

    cells = {
        f"{entry.family}@{entry.ranks}": {
            config.label: run_workflow(entry.spec, config).makespan
            for config in ALL_CONFIGS
        }
        for entry in workflow_suite()
    }
    _write(MAKESPANS, {"iterations": "paper", "makespans": cells})


def traced_counters(trace_out):
    """The metrics of a traced paper-sweep run (its last stdout line)."""
    with open(trace_out, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    result = json.loads(lines[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def record_counters(trace_out, workload):
    with open(COUNTERS["paper-sweep"], encoding="utf-8") as handle:
        names = sorted(json.load(handle))
    metrics = traced_counters(trace_out)
    _write(COUNTERS[workload], {name: metrics[name] for name in names})


def check_counters(trace_out, workload):
    with open(COUNTERS[workload], encoding="utf-8") as handle:
        expected = json.load(handle)
    metrics = traced_counters(trace_out)
    mismatches = [
        f"counter {name} = {metrics.get(name)} (pinned: {value})"
        for name, value in sorted(expected.items())
        if metrics.get(name) != value
    ]
    for line in mismatches:
        print(line)
    print(f"{len(expected)} pinned counters, {len(mismatches)} mismatch(es)")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("makespans", help="re-record the 72 makespans")
    for name, text in (
        ("counters", "re-record the counters from a traced run's output"),
        ("check", "compare a traced run's counters with the pinned ones"),
    ):
        command = sub.add_parser(name, help=text)
        command.add_argument("trace_out")
        command.add_argument(
            "--workload", choices=sorted(COUNTERS), default="paper-sweep"
        )
    args = parser.parse_args(argv)
    if args.command == "makespans":
        record_makespans()
    elif args.command == "counters":
        record_counters(args.trace_out, args.workload)
    else:
        return check_counters(args.trace_out, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
