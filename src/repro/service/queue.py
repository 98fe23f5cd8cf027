"""Persistent, append-only job queue (JSONL under ``service/``).

The queue follows the :mod:`repro.obs.store` conventions: one JSONL file,
never rewritten, every state change appended as a new record.  The file is
an event log — replaying it from the top reconstructs the current state of
every job, and a crashed service loses nothing but its in-flight work
(stale ``running`` jobs are requeued on the next start).

Record layout::

    {"record": "job", "schema_version": 1, "job_id": ..., "kind": "cell",
     "payload": {...}, "state": "queued", "attempts": 0,
     "max_retries": 2, "timeout_seconds": null, "deadline_epoch": null,
     "submitted_seq": 0}
    {"record": "transition", "job_id": ..., "state": "running",
     "attempts": 1, "detail": ...}

States form the lifecycle ``queued -> running -> done | failed`` with one
loop: a failed attempt transitions back to ``queued`` (``attempts``
incremented) until the retry budget ``max_retries`` is exhausted.

Unlike the campaign store's ``deterministic`` payloads, the queue is
*host-side* state — deadlines are wall-clock epochs and transition order
reflects what actually happened on this machine.  Nothing in the queue
file is ever hashed into a cell id or compared byte-for-byte.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import StorageError
from repro.obs.store import canonical_json

#: Version of the queue record schema (bumped on breaking changes).
QUEUE_SCHEMA_VERSION = 1

#: Default service state location, relative to the working directory.
DEFAULT_SERVICE_DIR = "service"

#: The queue file inside the service directory.
QUEUE_FILENAME = "queue.jsonl"

#: Job lifecycle states.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
JOB_STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED)

#: Retry budget applied when a submission does not choose one.
DEFAULT_MAX_RETRIES = 2

#: Job kinds the service knows how to execute.
KIND_CELL = "cell"
KIND_EXPERIMENT = "experiment"
JOB_KINDS = (KIND_CELL, KIND_EXPERIMENT)


@dataclass
class Job:
    """Current state of one submitted job (replayed from the event log)."""

    job_id: str
    kind: str
    payload: Dict[str, Any]
    state: str = STATE_QUEUED
    attempts: int = 0
    max_retries: int = DEFAULT_MAX_RETRIES
    timeout_seconds: Optional[float] = None
    deadline_epoch: Optional[float] = None
    submitted_seq: int = 0
    detail: Any = None
    cell_id: Optional[str] = None
    #: Wall-clock epochs replayed from the log (None on pre-timestamp
    #: records).  Host-side observability only — never hashed or compared.
    submitted_at: Optional[float] = None
    state_at: Optional[float] = None
    running_since: Optional[float] = None

    @property
    def retries_left(self) -> int:
        return max(0, self.max_retries - max(0, self.attempts - 1))

    @property
    def finished(self) -> bool:
        return self.state in (STATE_DONE, STATE_FAILED)

    def as_record(self) -> Dict[str, Any]:
        return {
            "record": "job",
            "schema_version": QUEUE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "kind": self.kind,
            "payload": self.payload,
            "state": STATE_QUEUED,
            "attempts": 0,
            "max_retries": self.max_retries,
            "timeout_seconds": self.timeout_seconds,
            "deadline_epoch": self.deadline_epoch,
            "submitted_seq": self.submitted_seq,
            "cell_id": self.cell_id,
            "submitted_at": self.submitted_at,
        }


# ----------------------------------------------------------------------
# Schema validation (used by tests, the CLI, and the CI service job).
# ----------------------------------------------------------------------
_JOB_REQUIRED = ("record", "job_id", "kind", "payload", "state", "submitted_seq")
_TRANSITION_REQUIRED = ("record", "job_id", "state", "attempts")


def validate_queue_lines(lines: Iterable[str]) -> List[str]:
    """Problems with a queue file's lines; empty list means valid."""
    problems: List[str] = []
    seen_jobs: Dict[str, str] = {}
    for index, line in enumerate(lines):
        prefix = f"line {index + 1}"
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"{prefix}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            problems.append(f"{prefix}: not a JSON object")
            continue
        kind = record.get("record")
        if kind == "job":
            for key in _JOB_REQUIRED:
                if key not in record:
                    problems.append(f"{prefix}: job record missing {key!r}")
            if record.get("schema_version") != QUEUE_SCHEMA_VERSION:
                problems.append(
                    f"{prefix}: schema_version "
                    f"{record.get('schema_version')!r} != {QUEUE_SCHEMA_VERSION}"
                )
            if record.get("kind") not in JOB_KINDS:
                problems.append(
                    f"{prefix}: unknown job kind {record.get('kind')!r}"
                )
            job_id = record.get("job_id")
            if job_id in seen_jobs:
                problems.append(f"{prefix}: duplicate job_id {job_id!r}")
            if isinstance(job_id, str):
                seen_jobs[job_id] = STATE_QUEUED
        elif kind == "transition":
            for key in _TRANSITION_REQUIRED:
                if key not in record:
                    problems.append(
                        f"{prefix}: transition record missing {key!r}"
                    )
            state = record.get("state")
            if state not in JOB_STATES:
                problems.append(f"{prefix}: unknown state {state!r}")
            job_id = record.get("job_id")
            if job_id not in seen_jobs:
                problems.append(
                    f"{prefix}: transition for unknown job {job_id!r}"
                )
            elif seen_jobs[job_id] in (STATE_DONE, STATE_FAILED):
                problems.append(
                    f"{prefix}: transition after terminal state for {job_id!r}"
                )
            elif state in JOB_STATES:
                seen_jobs[job_id] = state
        else:
            problems.append(f"{prefix}: unknown record type {kind!r}")
    return problems


def check_seconds(name: str, value: Optional[float]) -> None:
    """Reject a time limit that is set but not finite and > 0.

    A non-finite value would also reach the queue file as the non-JSON
    tokens ``NaN`` / ``Infinity``.
    """
    if value is not None and not (math.isfinite(value) and value > 0):
        raise StorageError(f"{name} must be finite and > 0, got {value}")


# ----------------------------------------------------------------------
# The queue.
# ----------------------------------------------------------------------
class JobQueue:
    """Append-only JSONL job queue under *root* (``service/`` by default).

    The queue is designed for one service process at a time (the Balsam
    "service loop" shape): claims are not locked against concurrent
    writers, the *workers* are the parallel part.
    """

    def __init__(self, root: str = DEFAULT_SERVICE_DIR, observer: Any = None):
        """*observer* (optional) gets ``job_submitted(job)`` /
        ``job_transition(job, state, detail)`` calls — the telemetry hook.
        It never influences what is written: queue bytes are identical
        with or without one attached."""
        self.root = root
        self.observer = observer

    # -- paths ----------------------------------------------------------
    @property
    def path(self) -> str:
        return os.path.join(self.root, QUEUE_FILENAME)

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # -- writing --------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")

    def submit(
        self,
        kind: str,
        payload: Dict[str, Any],
        max_retries: int = DEFAULT_MAX_RETRIES,
        timeout_seconds: Optional[float] = None,
        deadline_epoch: Optional[float] = None,
        cell_id: Optional[str] = None,
    ) -> Job:
        """Append a new queued job; returns it with its assigned id.

        Job ids are ``job-<seq>-<payload hash>``: the sequence number keeps
        resubmissions of an identical payload distinct (each submission is
        its own job — deduplication of *results* is the cache's business),
        while the hash fragment makes ids stable and self-describing.
        """
        if kind not in JOB_KINDS:
            raise StorageError(
                f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
            )
        if max_retries < 0:
            raise StorageError(f"max_retries must be >= 0, got {max_retries}")
        check_seconds("timeout_seconds", timeout_seconds)
        check_seconds("deadline_epoch", deadline_epoch)
        seq = len(self.load())
        import hashlib

        digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
        now = time.time()
        job = Job(
            job_id=f"job-{seq:04d}-{digest.hexdigest()[:8]}",
            kind=kind,
            payload=payload,
            max_retries=max_retries,
            timeout_seconds=timeout_seconds,
            deadline_epoch=deadline_epoch,
            submitted_seq=seq,
            cell_id=cell_id,
            submitted_at=now,
            state_at=now,
        )
        self._append(job.as_record())
        if self.observer is not None:
            self.observer.job_submitted(job)
        return job

    def _transition(self, job: Job, state: str, detail: Any = None) -> Job:
        if job.finished:
            raise StorageError(
                f"job {job.job_id} is already {job.state}; "
                "terminal states are final (submit a new job to re-run)"
            )
        now = time.time()
        self._append(
            {
                "record": "transition",
                "schema_version": QUEUE_SCHEMA_VERSION,
                "job_id": job.job_id,
                "state": state,
                "attempts": job.attempts,
                "detail": detail,
                "at": now,
            }
        )
        job.state = state
        job.detail = detail
        job.state_at = now
        job.running_since = now if state == STATE_RUNNING else None
        if self.observer is not None:
            self.observer.job_transition(job, state, detail)
        return job

    def claim(self, job: Job, detail: Any = None) -> Job:
        """Move a queued job to ``running`` (one more attempt started)."""
        if job.state != STATE_QUEUED:
            raise StorageError(
                f"cannot claim job {job.job_id} in state {job.state!r}"
            )
        job.attempts += 1
        return self._transition(job, STATE_RUNNING, detail)

    def mark_done(self, job: Job, detail: Any = None) -> Job:
        return self._transition(job, STATE_DONE, detail)

    def mark_failed(self, job: Job, detail: Any = None) -> Job:
        return self._transition(job, STATE_FAILED, detail)

    def retry(self, job: Job, detail: Any = None) -> Job:
        """Requeue a running job after a failed attempt — or fail it for
        good once the retry budget is exhausted."""
        if job.state != STATE_RUNNING:
            raise StorageError(
                f"cannot retry job {job.job_id} in state {job.state!r}"
            )
        if job.attempts > job.max_retries:
            return self._transition(
                job,
                STATE_FAILED,
                {
                    "reason": "retries exhausted",
                    "attempts": job.attempts,
                    "last_error": detail,
                },
            )
        return self._transition(job, STATE_QUEUED, detail)

    def release(self, job: Job, detail: Any = None) -> Job:
        """Return a claimed-but-unstarted job to the queue (drain path).

        Unlike :meth:`retry` this does not consume an attempt: the work
        never ran.
        """
        if job.state != STATE_RUNNING:
            raise StorageError(
                f"cannot release job {job.job_id} in state {job.state!r}"
            )
        job.attempts = max(0, job.attempts - 1)
        return self._transition(job, STATE_QUEUED, detail)

    def requeue_stale(self, detail: Any = "requeued stale running job") -> List[Job]:
        """Requeue every ``running`` job (crash recovery at service start)."""
        requeued = []
        for job in self.load():
            if job.state == STATE_RUNNING:
                requeued.append(self.release(job, detail))
        return requeued

    def drain(self, detail: Any = "drained") -> List[Job]:
        """Fail every queued job without running it (emptying the queue).

        Stale ``running`` jobs are requeued first so they are drained too.
        """
        self.requeue_stale()
        drained = []
        for job in self.load():
            if job.state == STATE_QUEUED:
                drained.append(self.mark_failed(job, detail))
        return drained

    # -- reading --------------------------------------------------------
    def load(self) -> List[Job]:
        """Replay the event log into current job states (submission order)."""
        if not self.exists():
            return []
        jobs: Dict[str, Job] = {}
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("record")
                if kind == "job":
                    job = Job(
                        job_id=record["job_id"],
                        kind=record["kind"],
                        payload=record["payload"],
                        state=record.get("state", STATE_QUEUED),
                        attempts=record.get("attempts", 0),
                        max_retries=record.get("max_retries", DEFAULT_MAX_RETRIES),
                        timeout_seconds=record.get("timeout_seconds"),
                        deadline_epoch=record.get("deadline_epoch"),
                        submitted_seq=record.get("submitted_seq", len(jobs)),
                        cell_id=record.get("cell_id"),
                        submitted_at=record.get("submitted_at"),
                        state_at=record.get("submitted_at"),
                    )
                    jobs[job.job_id] = job
                elif kind == "transition":
                    job = jobs.get(record.get("job_id"))
                    if job is None:
                        raise StorageError(
                            f"{self.path}: transition for unknown job "
                            f"{record.get('job_id')!r}"
                        )
                    job.state = record["state"]
                    job.attempts = record.get("attempts", job.attempts)
                    job.detail = record.get("detail")
                    job.state_at = record.get("at", job.state_at)
                    job.running_since = (
                        record.get("at")
                        if job.state == STATE_RUNNING
                        else None
                    )
                else:
                    raise StorageError(
                        f"{self.path}: unknown record type {kind!r}"
                    )
        return sorted(jobs.values(), key=lambda job: job.submitted_seq)

    def queued(self) -> List[Job]:
        return [job for job in self.load() if job.state == STATE_QUEUED]

    def counts(self) -> Dict[str, int]:
        """``state -> number of jobs`` (every state present, even at 0)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.load():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def stale_running(
        self, now: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """The ``running`` jobs and how long each has been running.

        With no live service pass these are crash leftovers — exactly what
        ``requeue_stale`` will recover on the next start.  ``age_seconds``
        is None for pre-timestamp log records (the age is unknowable).
        """
        reference = time.time() if now is None else now
        stale = []
        for job in self.load():
            if job.state != STATE_RUNNING:
                continue
            stale.append(
                {
                    "job_id": job.job_id,
                    "attempts": job.attempts,
                    "age_seconds": (
                        reference - job.running_since
                        if job.running_since is not None
                        else None
                    ),
                }
            )
        return stale

    def attempts_histogram(self) -> Dict[int, int]:
        """``attempts -> number of jobs`` over every job in the log.

        Sourced from replayed state, so it includes finished jobs: a bar
        at attempts >= 2 is the operator's retry-pressure signal.
        """
        histogram: Dict[int, int] = {}
        for job in self.load():
            histogram[job.attempts] = histogram.get(job.attempts, 0) + 1
        return dict(sorted(histogram.items()))

    def validate(self) -> List[str]:
        """Schema problems of the queue file (empty = valid)."""
        if not self.exists():
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            return validate_queue_lines(handle.readlines())
