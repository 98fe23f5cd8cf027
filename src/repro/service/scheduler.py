"""The service loop: queue -> cache -> recommendation-ordered worker pool.

One :meth:`ServiceScheduler.run` pass is the Balsam "service cycle":

1. **recover** — stale ``running`` jobs (a previous service crashed) go
   back to ``queued``; jobs past their deadline are failed;
2. **serve from cache** — each cell job's content id (known at submit
   time) is looked up in the :class:`~repro.service.cache.ResultCache`;
   hits complete without simulating anything and report a
   ``kind="cached"`` host record;
3. **order the misses** — remaining cell jobs are sorted
   shortest-predicted-first using
   :meth:`repro.core.recommend.RecommendationEngine.estimate_makespan`
   (the §VIII placement prices double as makespan predictions);
4. **execute and settle** — the :class:`~repro.service.pool.WorkerPool`
   runs the misses with per-job timeouts and hands back each outcome as
   its worker returns: a fresh result goes into the cache and its job is
   marked ``done`` right then, with the recommendation's regret vs the
   measured winner in the transition detail; failed attempts are retried
   through the queue with exponential backoff until each job's budget
   runs out;
5. **record** — at the end of the pass every completed cell (hit or
   fresh) is appended — sorted by cell id, so the file is byte-independent
   of completion order — to the ``results`` campaign under
   ``service/campaigns/``, together with any ``done`` cell an earlier,
   killed pass never got to append.

Experiment jobs (``repro-experiments --service``) ride steps 1/4 only —
queued after the cell misses, in the same pool and retry rounds — because
their outputs are reports, not content-addressed cells.

This pass is the one place the repository runs work in parallel: a
parallel ``campaign run`` submits its cells here too.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.recommend import RecommendationEngine
from repro.obs.explain import cell_bottleneck
from repro.obs.store import CampaignStore, StoredCell
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.service.cache import ResultCache, cell_id_for_spec
from repro.service.pool import STATUS_SKIPPED, TaskOutcome, TaskSpec, WorkerPool
from repro.service.queue import (
    DEFAULT_SERVICE_DIR,
    KIND_CELL,
    KIND_EXPERIMENT,
    STATE_DONE,
    STATE_QUEUED,
    Job,
    JobQueue,
    check_seconds,
)
from repro.service.tasks import cell_kwargs_from_json, execute_job
from repro.core.optimize.backends import PLAN_SCHEMA
from repro.service.telemetry import ServiceTelemetry

#: The campaign (under ``<root>/campaigns/``) service results accumulate in.
RESULTS_CAMPAIGN = "results"

#: Base of the exponential between-retry-round backoff.
DEFAULT_BACKOFF_SECONDS = 0.1


@dataclass
class ServiceRunReport:
    """Everything one service pass did (the ``status`` artifact's core)."""

    jobs: int
    strategy: str
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    experiments: int = 0
    failed: int = 0
    skipped: int = 0
    retried: int = 0
    expired: int = 0
    cells_appended: int = 0
    campaign: str = RESULTS_CAMPAIGN
    wall_seconds: float = 0.0
    drained: bool = False
    regrets: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_record(self) -> Dict[str, Any]:
        return {
            "record": "service_run",
            "jobs": self.jobs,
            "strategy": self.strategy,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "experiments": self.experiments,
            "failed": self.failed,
            "skipped": self.skipped,
            "retried": self.retried,
            "expired": self.expired,
            "cells_appended": self.cells_appended,
            "campaign": self.campaign,
            "wall_seconds": self.wall_seconds,
            "drained": self.drained,
            "regrets": self.regrets,
        }

    def render_text(self) -> str:
        lines = [
            f"service run: {self.executed} executed, "
            f"{self.cache_hits} cache hit(s) / {self.cache_misses} miss(es) "
            f"({self.cache_hit_rate:.0%} hit rate), "
            f"{self.experiments} experiment(s), {self.failed} failed, "
            f"{self.retried} retried, {self.skipped} skipped"
            + (f", {self.expired} expired" if self.expired else "")
        ]
        lines.append(
            f"{self.cells_appended} new cell(s) appended to campaign "
            f"{self.campaign!r}; {self.wall_seconds:.2f}s wall "
            f"with --jobs {self.jobs}"
            + (" (drained early)" if self.drained else "")
        )
        for entry in self.regrets:
            line = (
                f"  {entry['key']}: winner {entry['winner']}, "
                f"recommended {entry['recommended']} "
                f"(regret {entry['regret']:+.1%})"
            )
            if entry.get("plan") is not None:
                line += f", plan {entry['plan']}"
                if entry.get("plan_regret") is not None:
                    line += f" (regret {entry['plan_regret']:+.1%})"
            if entry.get("why"):
                line += f" — bottleneck {entry['why']}"
            lines.append(line)
        return "\n".join(lines)


class ServiceScheduler:
    """Drives queued jobs through the cache, the pool, and the store."""

    def __init__(
        self,
        root: str = DEFAULT_SERVICE_DIR,
        strategy: str = "hybrid",
        jobs: int = 1,
        cal: OptaneCalibration = DEFAULT_CALIBRATION,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        telemetry: Optional[ServiceTelemetry] = None,
        plan: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.root = root
        self.strategy = strategy
        self.jobs = jobs
        self.cal = cal
        self.backoff_seconds = backoff_seconds
        # An optimizer plan (repro.optimize.plan/v3) overrides per-job SJF
        # prices for the cells it covers, and regret entries gain the
        # plan's pick so `status` can show regret vs the plan.
        self.plan = plan
        self._plan_assignments: Dict[str, Dict[str, Any]] = {}
        if plan is not None:
            from repro.errors import ConfigurationError

            schema = plan.get("schema")
            if schema != PLAN_SCHEMA:
                raise ConfigurationError(
                    f"plan schema is {schema!r}, expected {PLAN_SCHEMA!r}; "
                    "re-run `python -m repro.core.optimize solve` to write one"
                )
            self._plan_assignments = dict(plan.get("assignments", {}))
        # A disabled instance is the default: every hook below becomes a
        # no-op and no telemetry file is ever created.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else ServiceTelemetry(root, enabled=False)
        )
        self.queue = JobQueue(root, observer=self.telemetry)
        self.cache = ResultCache(root)
        self.store = CampaignStore(os.path.join(root, "campaigns"))
        self._engine = RecommendationEngine(strategy=strategy, cal=cal)

    # -- submission -----------------------------------------------------
    def submit_suite(
        self,
        suite: str = "micro",
        configs: Optional[List[str]] = None,
        iterations: Optional[int] = None,
        stack_name: str = "nvstream",
        matmul_dim: Optional[int] = None,
        calibration: Optional[Dict[str, Any]] = None,
        max_retries: int = 2,
        timeout_seconds: Optional[float] = None,
        deadline_seconds: Optional[float] = None,
        cells: Optional[Sequence[Tuple[str, int]]] = None,
        profile: bool = False,
        profile_top: Optional[int] = None,
    ) -> List[Job]:
        """Submit one cell job per suite coordinate; returns the jobs.

        ``cells`` replaces the preset's (family, ranks) list — the form a
        parallel ``campaign run`` submits its planned cells in; the preset
        then only supplies the default iteration count.

        The cell's content id is computed now (manifests only — nothing is
        simulated) and stored on the job, so ``status`` can show which jobs
        are already cached before any run.
        """
        from repro.obs.campaign import SUITE_PRESETS
        from repro.apps.suite import build_workflow
        from repro.errors import ConfigurationError

        preset = SUITE_PRESETS.get(suite)
        if preset is None and cells is None:
            raise ConfigurationError(
                f"unknown suite {suite!r}; choices: {sorted(SUITE_PRESETS)}"
            )
        chosen_iterations = (
            iterations
            if iterations is not None
            else (preset.iterations if preset else None)
        )
        check_seconds("deadline_seconds", deadline_seconds)
        deadline_epoch = (
            time.time() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        submitted = []
        for family, ranks in cells if cells is not None else preset.cells:
            payload: Dict[str, Any] = {
                "family": family,
                "ranks": ranks,
                "configs": configs,
                "iterations": chosen_iterations,
                "stack_name": stack_name,
                "matmul_dim": matmul_dim,
                "calibration": calibration,
                "profile": profile,
            }
            if profile_top is not None:
                payload["profile_top"] = profile_top
            kwargs = cell_kwargs_from_json(payload)
            spec = build_workflow(
                family,
                ranks,
                stack_name=stack_name,
                iterations=chosen_iterations,
                matmul_dim=matmul_dim,
            )
            submitted.append(
                self.queue.submit(
                    KIND_CELL,
                    payload,
                    max_retries=max_retries,
                    timeout_seconds=timeout_seconds,
                    deadline_epoch=deadline_epoch,
                    cell_id=cell_id_for_spec(
                        spec, kwargs["configs"], kwargs["cal"]
                    ),
                )
            )
        return submitted

    def submit_experiments(
        self,
        experiment_ids: List[str],
        max_retries: int = 2,
        timeout_seconds: Optional[float] = None,
        deadline_seconds: Optional[float] = None,
    ) -> List[Job]:
        """Submit one experiment job per id (``repro-experiments`` names)."""
        check_seconds("deadline_seconds", deadline_seconds)
        deadline_epoch = (
            time.time() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        return [
            self.queue.submit(
                KIND_EXPERIMENT,
                {"experiment": experiment_id},
                max_retries=max_retries,
                timeout_seconds=timeout_seconds,
                deadline_epoch=deadline_epoch,
            )
            for experiment_id in experiment_ids
        ]

    # -- helpers --------------------------------------------------------
    def _build_spec(self, job: Job) -> Any:
        from repro.apps.suite import build_workflow

        kwargs = cell_kwargs_from_json(job.payload)
        return build_workflow(
            kwargs["family"],
            kwargs["ranks"],
            stack_name=kwargs["stack_name"],
            iterations=kwargs["iterations"],
            matmul_dim=kwargs["matmul_dim"],
        )

    def _cell_id_of(self, job: Job) -> Optional[str]:
        """The job's content id, or None if the payload cannot produce one.

        A malformed payload must not crash the service pass here — the
        worker will raise the real error and the retry/fail machinery
        reports it on the job.
        """
        if job.cell_id:
            return job.cell_id
        try:
            kwargs = cell_kwargs_from_json(job.payload)
            return cell_id_for_spec(
                self._build_spec(job), kwargs["configs"], kwargs["cal"]
            )
        except Exception:
            return None

    def _plan_assignment(self, job: Job) -> Optional[Dict[str, Any]]:
        """The optimizer plan's entry for this cell job, if any.

        A plan prices one workload per ``family@ranks``; a job that runs
        another (other iterations, stack, calibration or config list) has
        another cell id, and the plan's pick and price do not apply to
        it.  A non-default ``matmul_dim`` is part of the spec name, so
        it changes the cell id too.
        """
        if not self._plan_assignments or job.kind != KIND_CELL:
            return None
        key = f"{job.payload.get('family')}@{job.payload.get('ranks')}"
        assignment = self._plan_assignments.get(key)
        if assignment is None or assignment.get("cell_id") != self._cell_id_of(job):
            return None
        return assignment

    def _predict_seconds(self, job: Job) -> float:
        """SJF sort key; unpredictable jobs sort last instead of crashing.

        A plan assignment's predicted makespan wins over the engine's
        estimate — the plan priced the whole suite jointly.
        """
        assignment = self._plan_assignment(job)
        if assignment is not None:
            predicted = assignment.get("predicted_seconds")
            if isinstance(predicted, (int, float)):
                return float(predicted)
        try:
            return self._engine.estimate_makespan(self._build_spec(job))
        except Exception:
            return float("inf")

    def _regret_entry(
        self, job: Job, deterministic: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Recommendation regret vs the measured winner for one cell."""
        kwargs = cell_kwargs_from_json(job.payload)
        try:
            recommended = self._engine.recommend(self._build_spec(job)).config.label
        except Exception:
            return None
        makespans = {
            label: entry.get("makespan")
            for label, entry in deterministic.get("configs", {}).items()
        }
        winner = deterministic.get("winner")
        best = makespans.get(winner)
        chosen = makespans.get(recommended)
        if best is None or chosen is None or best <= 0:
            return None
        entry = {
            "key": f"{kwargs['family']}@{kwargs['ranks']}",
            "winner": winner,
            "recommended": recommended,
            "regret": chosen / best - 1.0,
        }
        assignment = self._plan_assignment(job)
        if assignment is not None and assignment.get("config"):
            planned = makespans.get(assignment["config"])
            entry["plan"] = assignment["config"]
            if planned is not None:
                entry["plan_regret"] = planned / best - 1.0
            if assignment.get("why"):
                entry["plan_why"] = assignment["why"]
        bottleneck = cell_bottleneck(deterministic)
        if bottleneck is not None:
            entry["bottleneck"] = bottleneck["dominant"]
            entry["why"] = bottleneck["why"]
        return entry

    def _cached_cell(
        self, job: Job, cell_id: Optional[str]
    ) -> Optional[StoredCell]:
        """The job's cell read from the cache with a ``cached`` host
        record, or None if the cache does not hold it."""
        from repro.obs.hostmetrics import cached_host_metrics

        lookup_t0 = time.perf_counter()
        cached = self.cache.get(cell_id) if cell_id is not None else None
        if cached is None:
            return None
        avoided = sum(
            entry.get("makespan") or 0.0
            for entry in cached.deterministic.get("configs", {}).values()
        )
        host = cached_host_metrics(
            wall_seconds=time.perf_counter() - lookup_t0,
            simulated_seconds=avoided,
        )
        return StoredCell(
            cell_id=cell_id,
            key=f"{job.payload.get('family')}@{job.payload.get('ranks')}",
            deterministic=cached.deterministic,
            host=host.as_record(),
            provenance=cached.provenance,
        )

    def _persist_cells(
        self, cells: List[StoredCell], done_jobs: Sequence[Job] = ()
    ) -> int:
        """Append new cells — sorted by cell id — to the results campaign.

        The campaign store rejects duplicate cell ids, which is exactly the
        "zero new deterministic records on a fully-cached rerun" guarantee;
        already-recorded cells are skipped here rather than errored.

        ``done_jobs`` are cell jobs an earlier pass completed.  A job is
        ``done`` as soon as its worker returns, so a pass killed before it
        got here leaves done cells the campaign lacks: those are read back
        from the cache and appended, in the same sorted order, with the
        rest.
        """
        if not cells and not done_jobs:
            return 0
        existing = (
            {cell.cell_id for cell in self.store.read(RESULTS_CAMPAIGN).cells}
            if self.store.exists(RESULTS_CAMPAIGN)
            else set()
        )
        new: Dict[str, StoredCell] = {}
        for cell in cells:
            if cell.cell_id not in existing:
                new.setdefault(cell.cell_id, cell)
        for job in done_jobs:
            cell_id = job.detail.get("cell_id")
            if cell_id in existing or cell_id in new:
                continue
            cell = self._cached_cell(job, cell_id)
            if cell is not None:
                new[cell_id] = cell
        if new and not self.store.exists(RESULTS_CAMPAIGN):
            self.store.create(RESULTS_CAMPAIGN, {"suite": "service"})
        for cell_id in sorted(new):
            self.store.append_cell(RESULTS_CAMPAIGN, new[cell_id])
        return len(new)

    def _finish_cell(
        self, job: Job, outcome: TaskOutcome
    ) -> Tuple[StoredCell, Optional[Dict[str, Any]]]:
        """Cache, score and complete one freshly executed cell job."""
        record = outcome.result
        # The worker's telemetry rides the result record but must never
        # reach the cache/store: pop it first.
        self.telemetry.absorb_worker_records(job, record.pop("telemetry", None))
        cell = StoredCell(
            cell_id=record["cell_id"],
            key=record["key"],
            deterministic=record["deterministic"],
            host=record["host"],
            provenance=record["provenance"],
        )
        if self.cache.put(cell):
            self.telemetry.cache_stored(job, cell.cell_id)
        regret = self._complete_cell(
            job, cell, {"cache": "miss", "wall_seconds": outcome.wall_seconds}
        )
        return cell, regret

    def _complete_cell(
        self, job: Job, cell: StoredCell, detail: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Score one finished cell job (regret, bottleneck); mark it done.

        Returns the regret entry, which the caller files in the report.
        """
        regret = self._regret_entry(job, cell.deterministic)
        bottleneck = cell_bottleneck(cell.deterministic)
        if bottleneck is not None:
            self.telemetry.note_bottleneck(cell.key, bottleneck)
        self.queue.mark_done(
            job, {**detail, "cell_id": cell.cell_id, "regret": regret}
        )
        return regret

    # -- the service pass -----------------------------------------------
    def run(
        self,
        should_stop: Optional[Callable[[], bool]] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> ServiceRunReport:
        """One full service pass over everything currently queued."""
        say = progress if progress is not None else (lambda message: None)
        t0 = time.perf_counter()
        report = ServiceRunReport(jobs=self.jobs, strategy=self.strategy)
        requeued = self.queue.requeue_stale()
        self.telemetry.stale_requeued(len(requeued))
        if requeued:
            say(f"requeued {len(requeued)} stale running job(s)")
        now = time.time()
        loaded = self.queue.load()
        done_before = [
            job
            for job in loaded
            if job.kind == KIND_CELL and job.state == STATE_DONE
        ]
        for job in loaded:
            if (
                job.state == STATE_QUEUED
                and job.deadline_epoch is not None
                and now > job.deadline_epoch
            ):
                self.queue.mark_failed(job, {"reason": "deadline expired"})
                self.telemetry.deadline_expired(job)
                report.expired += 1
                report.failed += 1
                say(f"{job.job_id}: deadline expired")
        queued = self.queue.queued()
        cell_jobs = [job for job in queued if job.kind == KIND_CELL]
        exp_jobs = [job for job in queued if job.kind == KIND_EXPERIMENT]
        completed: List[StoredCell] = []

        # Cache pass: serve hits without touching a worker.
        misses: List[Job] = []
        for job in cell_jobs:
            if should_stop is not None and should_stop():
                report.drained = True
                break
            cell = self._cached_cell(job, self._cell_id_of(job))
            if cell is None:
                report.cache_misses += 1
                self.telemetry.cache_miss(job)
                misses.append(job)
                continue
            report.cache_hits += 1
            self.telemetry.cache_hit(job, cell.cell_id)
            completed.append(cell)
            self.queue.claim(job, {"cache": "hit"})
            regret = self._complete_cell(job, cell, {"cache": "hit"})
            if regret is not None:
                report.regrets.append(regret)
            say(f"{job.job_id}: cache hit ({cell.cell_id})")

        # Predicted-best-first: shortest estimated makespan runs first, so
        # the pool drains the quick cells while the long ones occupy slots.
        # Experiment jobs follow the cells in the same pool and rounds.
        predicted = {job.job_id: self._predict_seconds(job) for job in misses}
        misses.sort(key=lambda job: predicted[job.job_id])
        for order, job in enumerate(misses):
            self.telemetry.schedule_decided(job, order, predicted[job.job_id])

        # Each job settles as its worker returns: cache put, regret and
        # its queue transition happen then, not after the whole round.
        by_id: Dict[str, Job] = {}
        regrets: Dict[str, Dict[str, Any]] = {}

        def settle(outcome: TaskOutcome) -> None:
            job = by_id[outcome.task_id]
            if outcome.ok and job.kind == KIND_EXPERIMENT:
                self.queue.mark_done(job, outcome.result)
                report.experiments += 1
                say(f"{job.job_id}: experiment done")
            elif outcome.ok:
                cell, regret = self._finish_cell(job, outcome)
                report.executed += 1
                completed.append(cell)
                if regret is not None:
                    regrets[job.job_id] = regret
                say(f"{job.job_id}: {cell.key} done")
            elif outcome.status == STATUS_SKIPPED:
                self.queue.release(job, {"reason": "drained"})
                report.skipped += 1
                report.drained = True
            else:
                job = self.queue.retry(
                    job, {"status": outcome.status, "error": outcome.error}
                )
                if job.state == STATE_QUEUED:
                    report.retried += 1
                    self.telemetry.retry_scheduled(job, outcome.status)
                    say(
                        f"{job.job_id}: {outcome.status}, retrying "
                        f"(attempt {job.attempts}/{job.max_retries + 1})"
                    )
                else:
                    report.failed += 1
                    say(f"{job.job_id}: failed ({outcome.status})")

        pool = WorkerPool(execute_job, jobs=self.jobs, observer=self.telemetry)
        attempt_round = 0
        pending = misses + exp_jobs
        while pending and not report.drained:
            if should_stop is not None and should_stop():
                report.drained = True
                break
            if attempt_round:
                delay = self.backoff_seconds * (2 ** (attempt_round - 1))
                self.telemetry.backoff(delay, attempt_round)
                time.sleep(delay)
            specs: List[TaskSpec] = []
            for job in pending:
                self.queue.claim(job, {"round": attempt_round})
                by_id[job.job_id] = job
                specs.append(
                    TaskSpec(
                        task_id=job.job_id,
                        payload={
                            "kind": job.kind,
                            "payload": job.payload,
                            "telemetry": self.telemetry.worker_dispatch(job),
                        },
                        timeout_seconds=job.timeout_seconds,
                    )
                )
            outcomes = pool.run(
                specs, should_stop=should_stop, on_outcome=settle
            )
            # Regrets and the next round follow dispatch order, whatever
            # order the workers returned in.
            report.regrets.extend(
                regrets.pop(outcome.task_id)
                for outcome in outcomes
                if outcome.task_id in regrets
            )
            pending = [
                by_id[outcome.task_id]
                for outcome in outcomes
                if outcome.retryable
                and by_id[outcome.task_id].state == STATE_QUEUED
            ]
            attempt_round += 1
            self.telemetry.round_finished()
            self.telemetry.update_levels(
                counts=self.queue.counts(),
                report=report,
                wall_seconds=time.perf_counter() - t0,
            )
            self.telemetry.write_snapshot(extra={"round": attempt_round})
        if report.drained and not attempt_round:
            # Drained before the first dispatch: no experiment ever ran.
            report.skipped += sum(
                1 for job in pending if job.kind == KIND_EXPERIMENT
            )

        report.cells_appended = self._persist_cells(completed, done_before)
        report.wall_seconds = time.perf_counter() - t0
        self.telemetry.update_levels(
            counts=self.queue.counts(),
            report=report,
            wall_seconds=report.wall_seconds,
        )
        self.telemetry.write_snapshot(
            extra={"report": report.as_record()}, final=True
        )
        return report
