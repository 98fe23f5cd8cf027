"""Regenerate the benchmark's reference fixtures from the current code.

Usage, from the repository root::

    python3 perfbench/make_fixtures.py

Writes into ``perfbench/fixtures/``:

* ``sweep_reference.json`` -- the 72 makespans and 18 winners of the paper
  sweep at paper iteration counts (``paper-sweep`` checks against it);
* ``service_cells.json`` -- the 18 full-suite cell payloads at the service
  workloads' iteration count (``service-cold`` checks against the cells it
  keeps; ``service-warm`` seeds its cache with them);
* ``seed_counters.json`` -- the deterministic per-layer counters of one
  traced pass of each workload.

The fixtures record the behaviour of the code they were generated from;
regenerate them only when a change to simulated results is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _write(name: str, document) -> None:
    path = os.path.join(HERE, "fixtures", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def sweep_reference():
    from repro.apps.suite import workflow_suite
    from repro.core.configs import ALL_CONFIGS
    from repro.metrics.analysis import best_config
    from repro.workflow.runner import run_workflow

    cells = {}
    for entry in workflow_suite():
        results = {c.label: run_workflow(entry.spec, c) for c in ALL_CONFIGS}
        cells[f"{entry.family}@{entry.ranks}"] = {
            "makespans": {label: r.makespan for label, r in results.items()},
            "winner": best_config(results),
        }
    return {"iterations": "paper", "cells": cells}


def service_cells(workdir: str):
    from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler
    from workloads import SERVICE_ITERATIONS

    root = os.path.join(workdir, "fixture-service")
    scheduler = ServiceScheduler(root=root, jobs=1)
    scheduler.submit_suite("full", iterations=SERVICE_ITERATIONS)
    report = scheduler.run()
    if report.failed or report.executed != 18:
        raise SystemExit(f"service run failed: {report.render_text()}")
    cells = {}
    for cell in scheduler.store.read(RESULTS_CAMPAIGN).cells:
        cells[cell.key] = {
            "family": cell.deterministic["family"],
            "ranks": cell.deterministic["ranks"],
            "deterministic": cell.deterministic,
            "provenance": cell.provenance,
        }
    return {"iterations": SERVICE_ITERATIONS, "cells": cells}


def seed_counters(workdir: str):
    from tracing import Tracer
    from workloads import WORKLOADS

    counters = {}
    for name, workload_type in sorted(WORKLOADS.items()):
        workload = workload_type(0, workdir)
        workload.load()
        state = workload.prepare(0)
        tracer = Tracer()
        tracer.install()
        try:
            result = workload.run_pass(state)
        finally:
            tracer.uninstall()
        workload.discard(state)
        if result.failed:
            raise SystemExit(f"{name}: {result.problems}")
        counters[name] = tracer.deterministic_counters()
    return counters


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    workdir = os.path.join(ROOT, ".perfbench", "fixtures")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        _write("sweep_reference.json", sweep_reference())
        _write("service_cells.json", service_cells(workdir))
        _write("seed_counters.json", seed_counters(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
