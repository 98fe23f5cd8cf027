"""The benchmark's three workloads.

Each workload imports its layers in :meth:`load` (timed as part of set-up),
builds fresh inputs in :meth:`prepare` (timed set-up, one per pass) and runs
one measured pass in :meth:`run_pass`.  A pass checks its own outputs
against the committed fixtures and reports every failed operation.

The seed only orders work: it permutes the 72 runs of ``paper-sweep`` and
the submission order of ``service-warm``.  Simulated outputs must not
depend on it, which the cross-pass comparison in ``run.py`` checks.

Functions that the tracer wraps are looked up through their modules at
call time (``runner.run_workflow``), so traced passes go through the
wrappers.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from checks import cell_summary, check_cell, load_fixture

#: The service workloads run the suite at the micro preset's iteration
#: count, so a pass fits the run length and the cached payloads are small.
SERVICE_ITERATIONS = 2

#: ``service-cold`` keeps the six 8-rank cells (one per workload family):
#: the full 18 cells take ~25 s per pass under observation + HostMeter.
COLD_CELLS: Tuple[Tuple[str, int], ...] = (
    ("micro-64mb", 8),
    ("micro-2k", 8),
    ("gtc+readonly", 8),
    ("gtc+matmult", 8),
    ("miniamr+readonly", 8),
    ("miniamr+matmult", 8),
)

#: Closed-loop rounds of ``service-warm``: submit the suite, run one pass.
WARM_ROUNDS = 30


@dataclass
class PassResult:
    """What one measured pass did and how long each piece took."""

    wall_s: float
    #: Workflow x configuration results delivered (simulated or cached).
    results: int
    #: Cells delivered (a cell is one workflow under all configurations).
    jobs: int
    #: Per-item host seconds, keyed so that the same item can be matched
    #: across passes (a run, a cell or a submission slot).
    run_times: Dict[str, float]
    job_times: Dict[str, float]
    #: The pass split into timed steps whose sum is (about) its wall time.
    steps: Dict[str, float]
    attempted: int
    failed: int
    #: key -> {config label: makespan}, compared bit for bit across passes.
    outputs: Dict[str, Dict[str, float]]
    paper_hits: int
    problems: List[str] = field(default_factory=list)



def _key(family: str, ranks: int) -> str:
    return f"{family}@{ranks}"


def _shuffled(items: List[Any], seed: int, pass_index: int) -> List[Any]:
    items = list(items)
    random.Random(f"{seed}:{pass_index}").shuffle(items)
    return items


class PaperSweep:
    """The 18 paper workflows x 4 configurations through ``run_workflow``."""

    name = "paper-sweep"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def load(self) -> None:
        import repro.workflow.runner as runner
        from repro.apps.suite import PAPER_EXPECTATIONS, workflow_suite
        from repro.core.configs import ALL_CONFIGS
        from repro.metrics.analysis import best_config

        self.runner = runner
        self.expectations = PAPER_EXPECTATIONS
        self.workflow_suite = workflow_suite
        self.configs = ALL_CONFIGS
        self.best_config = best_config

    def prepare(self, pass_index: int) -> Dict[str, Any]:
        runs = [
            (entry, config)
            for entry in self.workflow_suite()
            for config in self.configs
        ]
        return {
            "reference": load_fixture("sweep_reference.json")["cells"],
            "runs": _shuffled(runs, self.seed, pass_index),
        }

    def discard(self, state: Dict[str, Any]) -> None:
        pass

    def run_pass(self, state: Dict[str, Any], probe: Callable[[], bool]) -> PassResult:
        clock = time.perf_counter
        results: Dict[str, Dict[str, Any]] = {}
        cell_times: Dict[str, float] = {}
        run_times: Dict[str, float] = {}
        problems: List[str] = []
        started = clock()
        for entry, config in state["runs"]:
            key = _key(entry.family, entry.ranks)
            probe()
            t0 = clock()
            try:
                result = self.runner.run_workflow(entry.spec, config)
            except Exception:
                problems.append(f"{key}/{config.label}: {traceback.format_exc(limit=4)}")
                continue
            elapsed = clock() - t0
            run_times[f"{key}/{config.label}"] = elapsed
            cell_times[key] = cell_times.get(key, 0.0) + elapsed
            results.setdefault(key, {})[config.label] = result
        wall = clock() - started
        failed = len(problems)
        outputs: Dict[str, Dict[str, float]] = {}
        hits = 0
        for key, reference in sorted(state["reference"].items()):
            by_label = results.get(key, {})
            outputs[key] = {label: r.makespan for label, r in by_label.items()}
            winner = self.best_config(by_label) if by_label else None
            cell_problems = check_cell(
                {"makespans": outputs[key], "winner": winner}, reference
            )
            failed += len(cell_problems)
            problems.extend(f"{key}: {p}" for p in cell_problems)
            family, _, ranks = key.rpartition("@")
            hits += winner == self.expectations[(family, int(ranks))][0]
        attempted = len(state["runs"])
        return PassResult(
            wall_s=wall,
            results=len(run_times),
            jobs=len(cell_times),
            run_times=run_times,
            job_times=cell_times,
            steps=run_times,
            attempted=attempted,
            failed=min(failed, attempted),
            outputs=outputs,
            paper_hits=hits,
            problems=problems,
        )


def read_queue(path: str) -> List[Dict[str, Any]]:
    """Replay a service queue file into one dict per job."""
    jobs: Dict[str, Dict[str, Any]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["record"] == "job":
                payload = record["payload"]
                jobs[record["job_id"]] = {
                    "key": _key(payload["family"], payload["ranks"]),
                    "submitted_at": record["submitted_at"],
                    "state": record["state"],
                    "running_at": None,
                    "done_at": None,
                    "detail": None,
                }
                continue
            job = jobs[record["job_id"]]
            job["state"] = record["state"]
            job["detail"] = record.get("detail")
            if record["state"] == "running":
                job["running_at"] = record["at"]
            elif record["state"] == "done":
                job["done_at"] = record["at"]
    return list(jobs.values())


def _service_reference(fixture: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {
        key: cell_summary(cell["deterministic"])
        for key, cell in fixture["cells"].items()
    }


class _ServiceWorkload:
    """Shared set-up and checking of the two service workloads."""

    name = ""
    #: Name of the suite preset the workload registers and submits.
    suite = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._roots = 0

    def load(self) -> None:
        import repro.service.cache as cache
        from repro.apps.suite import PAPER_EXPECTATIONS, build_workflow
        from repro.core.configs import ALL_CONFIGS
        from repro.obs.campaign import SUITE_PRESETS, SuitePreset
        from repro.obs.store import CampaignStore, StoredCell
        from repro.pmem.calibration import DEFAULT_CALIBRATION
        from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler
        from repro.service.telemetry import ServiceTelemetry

        class ProbingTelemetry(ServiceTelemetry):
            """Disabled service telemetry that samples the host-speed probe
            on every submission and job transition, so probes also land
            inside ``submit_suite``."""

            probe: Callable[[], bool] = staticmethod(lambda: False)

            def job_submitted(self, job: Any) -> None:
                self.probe()

            def job_transition(self, job: Any, state: str, detail: Any) -> None:
                self.probe()

        self.cache = cache
        self.expectations = PAPER_EXPECTATIONS
        self.build_workflow = build_workflow
        self.configs = ALL_CONFIGS
        self.presets = SUITE_PRESETS
        self.preset_type = SuitePreset
        self.store_type = CampaignStore
        self.cell_type = StoredCell
        self.calibration = DEFAULT_CALIBRATION
        self.results_campaign = RESULTS_CAMPAIGN
        self.scheduler_type = ServiceScheduler
        self.telemetry_type = ProbingTelemetry

    def _fresh_root(self) -> str:
        self._roots += 1
        root = os.path.join(self.workdir, f"{self.name}-{self._roots}")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        return root

    def _register(self, name: str, cells: List[Tuple[str, int]]) -> None:
        self.presets[name] = self.preset_type(
            name=name,
            cells=tuple(cells),
            iterations=SERVICE_ITERATIONS,
            description="benchmark workload",
        )

    def discard(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    def _finish(
        self,
        state: Dict[str, Any],
        wall: float,
        item_of,
        expect_cache: str,
    ) -> Tuple[PassResult, List[Dict[str, Any]]]:
        """Check one pass's jobs and stored cells against the reference.

        Returns the pass result, with job latencies keyed by ``item_of(slot,
        job)``, and the jobs that completed correctly; the caller fills in
        the run times and steps.
        """
        root = state["root"]
        reference = state["reference"]
        jobs = read_queue(os.path.join(root, "queue.jsonl"))
        stored = self.store_type(os.path.join(root, "campaigns"))
        cells = {}
        if stored.exists(self.results_campaign):
            cells = {
                cell.key: cell.deterministic
                for cell in stored.read(self.results_campaign).cells
            }
        problems: List[str] = []
        bad_keys = set()
        outputs: Dict[str, Dict[str, float]] = {}
        hits = 0
        for key in sorted({job["key"] for job in jobs}):
            deterministic = cells.get(key)
            if deterministic is None:
                bad_keys.add(key)
                problems.append(f"{key}: no stored cell")
                continue
            summary = cell_summary(deterministic)
            outputs[key] = summary["makespans"]
            cell_problems = check_cell(summary, reference[key])
            if cell_problems:
                bad_keys.add(key)
                problems.extend(f"{key}: {p}" for p in cell_problems)
            family, _, ranks = key.rpartition("@")
            hits += summary["winner"] == self.expectations[(family, int(ranks))][0]
        job_times: Dict[str, float] = {}
        good: List[Dict[str, Any]] = []
        failed = 0
        for slot, job in enumerate(jobs):
            cache_state = (job["detail"] or {}).get("cache")
            if job["state"] != "done" or cache_state != expect_cache:
                failed += 1
                problems.append(
                    f"{job['key']}: job ended {job['state']} (cache {cache_state})"
                )
                continue
            if job["key"] in bad_keys:
                failed += 1
                continue
            good.append(job)
            job_times[item_of(slot, job)] = job["done_at"] - job["submitted_at"]
        result = PassResult(
            wall_s=wall,
            results=len(job_times) * len(self.configs),
            jobs=len(job_times),
            run_times={},
            job_times=job_times,
            steps={},
            attempted=len(jobs),
            failed=failed,
            outputs=outputs,
            paper_hits=hits,
            problems=problems,
        )
        return result, good


class ServiceCold(_ServiceWorkload):
    """Every job misses: ``run_cell`` under observation, then cache + store."""

    name = "service-cold"
    suite = "bench-cold"

    def load(self) -> None:
        super().load()
        self._register(self.suite, list(COLD_CELLS))

    def prepare(self, pass_index: int) -> Dict[str, Any]:
        root = self._fresh_root()
        return {
            "root": root,
            "reference": _service_reference(load_fixture("service_cells.json")),
            "scheduler": self.scheduler_type(
                root=root, jobs=1, telemetry=self.telemetry_type(root, enabled=False)
            ),
        }

    def run_pass(self, state: Dict[str, Any], probe: Callable[[], bool]) -> PassResult:
        started = time.perf_counter()
        scheduler = state["scheduler"]
        scheduler.telemetry.probe = probe
        scheduler.submit_suite(self.suite)
        scheduler.run(should_stop=probe)
        wall = time.perf_counter() - started
        result, good = self._finish(
            state, wall, item_of=lambda slot, job: job["key"], expect_cache="miss"
        )
        # A miss's worker time is recorded on its done transition; its
        # claim happens before the whole batch runs, so claim->done would
        # include the jobs ahead of it.
        result.run_times = {job["key"]: job["detail"]["wall_seconds"] for job in good}
        result.steps = dict(result.run_times)
        result.steps["scheduler"] = wall - sum(result.run_times.values())
        return result


class ServiceWarm(_ServiceWorkload):
    """A closed loop of full-suite submissions, all served from the cache."""

    name = "service-warm"
    suite = "bench-warm"

    def prepare(self, pass_index: int) -> Dict[str, Any]:
        root = self._fresh_root()
        fixture = load_fixture("service_cells.json")
        cache = self.cache.ResultCache(root)
        cells = []
        for key, cell in sorted(fixture["cells"].items()):
            family, ranks = cell["family"], cell["ranks"]
            cells.append((family, ranks))
            spec = self.build_workflow(family, ranks, iterations=SERVICE_ITERATIONS)
            cell_id = self.cache.cell_id_for_spec(spec, self.configs, self.calibration)
            cache.put(
                self.cell_type(
                    cell_id=cell_id,
                    key=key,
                    deterministic=cell["deterministic"],
                    host={},
                    provenance=cell["provenance"],
                )
            )
        suite = f"{self.suite}-{pass_index}"
        self._register(suite, _shuffled(cells, self.seed, pass_index))
        return {
            "root": root,
            "suite": suite,
            "reference": _service_reference(fixture),
            "scheduler": self.scheduler_type(
                root=root, jobs=1, telemetry=self.telemetry_type(root, enabled=False)
            ),
        }

    def run_pass(self, state: Dict[str, Any], probe: Callable[[], bool]) -> PassResult:
        clock = time.perf_counter
        scheduler = state["scheduler"]
        scheduler.telemetry.probe = probe
        rounds: Dict[str, float] = {}
        per_job: Dict[str, float] = {}
        started = clock()
        for index in range(WARM_ROUNDS):
            probe()
            t0 = clock()
            jobs = scheduler.submit_suite(state["suite"])
            t1 = clock()
            scheduler.run(should_stop=probe)
            t2 = clock()
            rounds[f"round-{index:02d}"] = t2 - t0
            per_job[f"round-{index:02d}"] = (t2 - t1) / len(jobs)
        wall = clock() - started
        # Latency depends on the submission slot (the queue file grows
        # through the loop), not on which cell the seed put there.
        result, _ = self._finish(
            state,
            wall,
            item_of=lambda slot, job: f"slot-{slot:03d}",
            expect_cache="hit",
        )
        # A cache hit's own claim->done interval is tens of microseconds;
        # its share of the scheduler pass that served it is the host time
        # the service spends per job.
        result.run_times = per_job
        result.steps = rounds
        return result


WORKLOADS = {w.name: w for w in (PaperSweep, ServiceCold, ServiceWarm)}
