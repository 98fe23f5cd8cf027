"""``repro.service`` — a Balsam-style scheduling service for the simulator.

Everything else in this repository evaluates cells serially in one
process, and submits here when it wants them in parallel.  This package
turns the reproduction into a long-lived scheduling service (the shape
Balsam gives HPC workflow campaigns):

* :mod:`repro.service.queue` — a persistent, append-only **job queue**
  (JSONL under ``service/``, same conventions as :mod:`repro.obs.store`)
  holding submitted (workflow, configuration-set) jobs with states
  ``queued -> running -> done/failed``, retry budgets, and deadlines;
* :mod:`repro.service.pool` — a ``multiprocessing``-based **worker pool**
  executing simulation cells in parallel with per-task timeouts, crash
  detection, and graceful drain;
* :mod:`repro.service.cache` — a **content-addressed result cache** keyed
  by the store's SHA-256 cell ids, so resubmitting an identical
  spec/config/calibration is a cache hit that skips simulation entirely;
* :mod:`repro.service.scheduler` — the **service loop** routing each job
  through :class:`repro.core.recommend.RecommendationEngine`
  (predicted-best-first ordering) and recording outcomes + regret into a
  campaign store;
* :mod:`repro.service.telemetry` — the **live telemetry plane**: queue /
  pool / scheduler observers feeding wall-clock metrics (depth, rates,
  utilization, latency histograms), per-job lifecycle spans stitched
  across worker processes, JSONL snapshots, Prometheus exposition, and
  the combined wall-time/virtual-time Chrome trace;
* ``python -m repro.service`` — the ``submit | run | status | metrics |
  drain | cache`` command line (:mod:`repro.service.cli`).

The host-side concurrency lives *only* here (enforced by simlint rule
SIM110); the simulator each worker drives stays
single-threaded and deterministic, and completed cells are sorted by cell
id before persisting so the stored results are byte-identical regardless
of worker completion order.
"""

from repro.service.cache import CacheStats, ResultCache, cell_id_for_spec
from repro.service.pool import TaskOutcome, TaskSpec, WorkerPool
from repro.service.queue import (
    DEFAULT_SERVICE_DIR,
    Job,
    JobQueue,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
)
from repro.service.scheduler import ServiceRunReport, ServiceScheduler
from repro.service.telemetry import ServiceTelemetry

__all__ = [
    "CacheStats",
    "DEFAULT_SERVICE_DIR",
    "Job",
    "JobQueue",
    "ResultCache",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "ServiceRunReport",
    "ServiceScheduler",
    "ServiceTelemetry",
    "TaskOutcome",
    "TaskSpec",
    "WorkerPool",
    "cell_id_for_spec",
]
