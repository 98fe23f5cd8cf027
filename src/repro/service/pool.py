"""Worker pool: parallel execution of service tasks with host-side limits.

This package is the only sanctioned home of host concurrency (simlint
rule SIM110).  The pool never touches the simulator's determinism: each
worker process runs an ordinary single-threaded simulation, and callers
sort completed results by cell id before persisting, so the stored bytes
are independent of completion order.

Design points:

* **Manual dispatch** — at most ``jobs`` tasks are ever submitted to the
  executor, so a task's submission time is (approximately) its start time
  and per-task timeouts can be enforced from the parent.
* **Timeouts** — a task running past ``timeout_seconds`` is reported as
  ``timeout`` and the executor is rebuilt (a :class:`~concurrent.futures.
  ProcessPoolExecutor` cannot kill one task); innocent in-flight tasks are
  resubmitted to the fresh executor and lose nothing.
* **Crash detection** — a worker dying (``os._exit``, segfault, OOM kill)
  breaks the pool; every task in flight at that moment is reported as
  ``crash`` and the executor is rebuilt.  The *queue* owns retry budgets,
  so an innocent task swept up in a crash is simply retried.
* **Graceful drain** — ``should_stop`` is polled between dispatches; once
  it returns True no new task starts, running tasks finish, and the rest
  are reported as ``skipped``.
* **Serial fallback** — ``jobs=1`` runs tasks inline in this process (no
  ``multiprocessing`` involved, timeouts not enforced), which keeps the
  default path identical to pre-service behavior.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Task outcome statuses.
STATUS_DONE = "done"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_CRASH = "crash"
STATUS_SKIPPED = "skipped"

#: Seconds between timeout sweeps while waiting on in-flight tasks.
POLL_SECONDS = 0.05


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work: an id, a picklable payload, an optional timeout."""

    task_id: str
    payload: Dict[str, Any]
    timeout_seconds: Optional[float] = None


@dataclass
class TaskOutcome:
    """What happened to one task (exactly one per submitted spec)."""

    task_id: str
    status: str
    result: Any = None
    error: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_DONE

    @property
    def retryable(self) -> bool:
        """Failures worth another attempt (the queue applies the budget)."""
        return self.status in (STATUS_ERROR, STATUS_TIMEOUT, STATUS_CRASH)


class WorkerPool:
    """Run tasks through *task_fn* with up to *jobs* worker processes.

    ``task_fn`` must be a module-level (picklable) callable taking one
    payload dict and returning a JSON-serializable result — in the
    repository that is :func:`repro.service.tasks.execute_job`, run by
    :meth:`repro.service.scheduler.ServiceScheduler.run`, the pool's one
    caller.
    """

    def __init__(
        self,
        task_fn: Callable[[Dict[str, Any]], Any],
        jobs: int = 1,
        observer: Any = None,
    ):
        """*observer* (optional) is the telemetry hook: it gets
        ``task_started(task_id)`` at dispatch, ``task_settled(outcome)``
        as each task settles, and ``pool_rebuilt(reason)`` when a crash or
        timeout forces a fresh executor.  It never changes scheduling."""
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.task_fn = task_fn
        self.jobs = jobs
        self.observer = observer

    def _observe_started(self, task_id: str) -> None:
        if self.observer is not None:
            self.observer.task_started(task_id)

    def _observe_settled(self, outcome: TaskOutcome) -> None:
        if self.observer is not None:
            self.observer.task_settled(outcome)

    def _observe_rebuilt(self, reason: str) -> None:
        if self.observer is not None:
            self.observer.pool_rebuilt(reason)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[TaskSpec],
        should_stop: Optional[Callable[[], bool]] = None,
        on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Execute every task; outcomes are returned in submission order.

        ``should_stop`` is the drain hook: polled before each dispatch (and
        each inline task); once true, nothing new starts.  ``on_outcome``
        fires as each task settles, in completion order.
        """
        if self.jobs == 1:
            return self._run_inline(tasks, should_stop, on_outcome)
        return self._run_pool(tasks, should_stop, on_outcome)

    # -- serial path ----------------------------------------------------
    def _run_inline(
        self,
        tasks: Sequence[TaskSpec],
        should_stop: Optional[Callable[[], bool]],
        on_outcome: Optional[Callable[[TaskOutcome], None]],
    ) -> List[TaskOutcome]:
        outcomes: List[TaskOutcome] = []
        stopping = False
        for spec in tasks:
            if not stopping and should_stop is not None and should_stop():
                stopping = True
            if stopping:
                outcome = TaskOutcome(spec.task_id, STATUS_SKIPPED)
            else:
                self._observe_started(spec.task_id)
                started = time.perf_counter()
                try:
                    result = self.task_fn(spec.payload)
                    outcome = TaskOutcome(
                        spec.task_id,
                        STATUS_DONE,
                        result=result,
                        wall_seconds=time.perf_counter() - started,
                    )
                except Exception:
                    outcome = TaskOutcome(
                        spec.task_id,
                        STATUS_ERROR,
                        error=traceback.format_exc(limit=8),
                        wall_seconds=time.perf_counter() - started,
                    )
            outcomes.append(outcome)
            self._observe_settled(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes

    # -- parallel path --------------------------------------------------
    def _run_pool(
        self,
        tasks: Sequence[TaskSpec],
        should_stop: Optional[Callable[[], bool]],
        on_outcome: Optional[Callable[[TaskOutcome], None]],
    ) -> List[TaskOutcome]:
        order = [spec.task_id for spec in tasks]
        settled: Dict[str, TaskOutcome] = {}
        pending: List[TaskSpec] = list(tasks)
        in_flight: Dict[Future, Tuple[TaskSpec, float]] = {}
        executor = ProcessPoolExecutor(max_workers=self.jobs)
        stopping = False

        def settle(outcome: TaskOutcome) -> None:
            settled[outcome.task_id] = outcome
            self._observe_settled(outcome)
            if on_outcome is not None:
                on_outcome(outcome)

        def rebuild(reason: str) -> None:
            nonlocal executor
            executor.shutdown(wait=False, cancel_futures=True)
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            self._observe_rebuilt(reason)

        try:
            while pending or in_flight:
                if not stopping and should_stop is not None and should_stop():
                    stopping = True
                if stopping and pending:
                    for spec in pending:
                        settle(TaskOutcome(spec.task_id, STATUS_SKIPPED))
                    pending = []
                while pending and not stopping and len(in_flight) < self.jobs:
                    spec = pending.pop(0)
                    self._observe_started(spec.task_id)
                    future = executor.submit(self.task_fn, spec.payload)
                    in_flight[future] = (spec, time.perf_counter())
                if not in_flight:
                    continue
                done, _ = wait(
                    in_flight, timeout=POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    spec, started = in_flight.pop(future)
                    elapsed = time.perf_counter() - started
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        settle(
                            TaskOutcome(
                                spec.task_id,
                                STATUS_CRASH,
                                error="worker process died",
                                wall_seconds=elapsed,
                            )
                        )
                        continue
                    except Exception:
                        settle(
                            TaskOutcome(
                                spec.task_id,
                                STATUS_ERROR,
                                error=traceback.format_exc(limit=8),
                                wall_seconds=elapsed,
                            )
                        )
                        continue
                    settle(
                        TaskOutcome(
                            spec.task_id,
                            STATUS_DONE,
                            result=result,
                            wall_seconds=elapsed,
                        )
                    )
                if broken:
                    # A dead worker breaks every future; in-flight tasks
                    # cannot be told apart from the culprit, so all are
                    # crashes (the queue's retry budget sorts them out).
                    for future, (spec, started) in list(in_flight.items()):
                        settle(
                            TaskOutcome(
                                spec.task_id,
                                STATUS_CRASH,
                                error="worker pool broken by a dying worker",
                                wall_seconds=time.perf_counter() - started,
                            )
                        )
                    in_flight = {}
                    rebuild("crash")
                    continue
                # Timeout sweep: report overdue tasks, rebuild the executor
                # (one task cannot be killed), and resubmit the innocent.
                now = time.perf_counter()
                overdue = [
                    (future, spec, started)
                    for future, (spec, started) in in_flight.items()
                    if spec.timeout_seconds is not None
                    and now - started > spec.timeout_seconds
                ]
                if overdue:
                    for future, spec, started in overdue:
                        del in_flight[future]
                        settle(
                            TaskOutcome(
                                spec.task_id,
                                STATUS_TIMEOUT,
                                error=(
                                    f"exceeded {spec.timeout_seconds}s "
                                    "timeout"
                                ),
                                wall_seconds=now - started,
                            )
                        )
                    innocents = [spec for spec, _ in in_flight.values()]
                    in_flight = {}
                    rebuild("timeout")
                    pending = innocents + pending
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return [settled[task_id] for task_id in order]
