"""Job queue lifecycle: submit/claim/retry/release/drain + schema checks."""

import pytest

from repro.errors import StorageError
from repro.service.queue import (
    KIND_CELL,
    KIND_EXPERIMENT,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    JobQueue,
    validate_queue_lines,
)


@pytest.fixture()
def queue(tmp_path):
    return JobQueue(str(tmp_path / "service"))


def test_submit_assigns_sequential_content_ids(queue):
    first = queue.submit(KIND_CELL, {"family": "micro-2k", "ranks": 8})
    second = queue.submit(KIND_CELL, {"family": "micro-2k", "ranks": 8})
    assert first.job_id.startswith("job-0000-")
    assert second.job_id.startswith("job-0001-")
    # Identical payload -> identical hash fragment, distinct sequence.
    assert first.job_id.split("-")[2] == second.job_id.split("-")[2]
    assert [job.state for job in queue.load()] == [STATE_QUEUED, STATE_QUEUED]


def test_unknown_kind_and_negative_retries_rejected(queue):
    with pytest.raises(StorageError):
        queue.submit("mystery", {})
    with pytest.raises(StorageError):
        queue.submit(KIND_CELL, {}, max_retries=-1)


def test_happy_path_lifecycle_survives_reload(queue):
    job = queue.submit(KIND_EXPERIMENT, {"experiment": "fig01"})
    queue.claim(job)
    assert job.state == STATE_RUNNING
    assert job.attempts == 1
    queue.mark_done(job, {"claims": 3})
    reloaded = JobQueue(queue.root).load()
    assert [j.state for j in reloaded] == [STATE_DONE]
    assert reloaded[0].detail == {"claims": 3}
    assert reloaded[0].attempts == 1


def test_terminal_states_are_final(queue):
    job = queue.submit(KIND_CELL, {"n": 1})
    queue.claim(job)
    queue.mark_done(job)
    with pytest.raises(StorageError):
        queue.mark_failed(job)
    with pytest.raises(StorageError):
        queue.claim(job)


def test_retry_requeues_until_budget_exhausted(queue):
    job = queue.submit(KIND_CELL, {"n": 1}, max_retries=2)
    for attempt in (1, 2):
        queue.claim(job)
        queue.retry(job, {"status": "error"})
        assert job.state == STATE_QUEUED
        assert job.attempts == attempt
    queue.claim(job)
    queue.retry(job, {"status": "error"})
    assert job.state == STATE_FAILED
    assert job.detail["reason"] == "retries exhausted"
    assert job.detail["attempts"] == 3


def test_release_returns_attempt_to_budget(queue):
    job = queue.submit(KIND_CELL, {"n": 1}, max_retries=0)
    queue.claim(job)
    queue.release(job, {"reason": "drained"})
    assert job.state == STATE_QUEUED
    assert job.attempts == 0
    # The un-consumed attempt is still available: claim + fail uses it up.
    queue.claim(job)
    queue.retry(job)
    assert job.state == STATE_FAILED


def test_requeue_stale_recovers_crashed_service(queue):
    job = queue.submit(KIND_CELL, {"n": 1})
    queue.claim(job)
    # A fresh service process sees the stale running job and requeues it.
    fresh = JobQueue(queue.root)
    requeued = fresh.requeue_stale()
    assert [j.job_id for j in requeued] == [job.job_id]
    assert fresh.counts()[STATE_QUEUED] == 1
    assert fresh.load()[0].attempts == 0


def test_drain_fails_everything_queued_and_stale(queue):
    queued = queue.submit(KIND_CELL, {"n": 1})
    running = queue.submit(KIND_CELL, {"n": 2})
    done = queue.submit(KIND_CELL, {"n": 3})
    queue.claim(running)
    queue.claim(done)
    queue.mark_done(done)
    drained = queue.drain()
    assert {j.job_id for j in drained} == {queued.job_id, running.job_id}
    counts = queue.counts()
    assert counts[STATE_FAILED] == 2
    assert counts[STATE_DONE] == 1
    assert counts[STATE_QUEUED] == 0


def test_deadline_and_timeout_round_trip(queue):
    job = queue.submit(
        KIND_CELL, {"n": 1}, timeout_seconds=5.0, deadline_epoch=123.0
    )
    reloaded = JobQueue(queue.root).load()[0]
    assert reloaded.timeout_seconds == 5.0
    assert reloaded.deadline_epoch == 123.0
    assert reloaded.job_id == job.job_id


def test_validate_accepts_real_queue_file(queue):
    job = queue.submit(KIND_CELL, {"n": 1})
    queue.claim(job)
    queue.mark_done(job)
    assert queue.validate() == []


def test_validate_flags_schema_problems():
    problems = validate_queue_lines(
        [
            "not json",
            '{"record": "job", "job_id": "a", "kind": "mystery", '
            '"payload": {}, "state": "queued", "submitted_seq": 0, '
            '"schema_version": 1}',
            '{"record": "transition", "job_id": "ghost", "state": "done", '
            '"attempts": 1}',
            '{"record": "wat"}',
        ]
    )
    assert any("invalid JSON" in p for p in problems)
    assert any("unknown job kind" in p for p in problems)
    assert any("unknown job" in p for p in problems)
    assert any("unknown record type" in p for p in problems)


def test_validate_flags_transition_after_terminal(queue):
    lines = [
        '{"record": "job", "job_id": "a", "kind": "cell", "payload": {}, '
        '"state": "queued", "submitted_seq": 0, "schema_version": 1}',
        '{"record": "transition", "job_id": "a", "state": "done", "attempts": 1}',
        '{"record": "transition", "job_id": "a", "state": "running", "attempts": 2}',
    ]
    problems = validate_queue_lines(lines)
    assert any("terminal state" in p for p in problems)


def test_torn_tail_skipped_and_corrupt_line_named(queue):
    first = queue.submit(KIND_CELL, {"family": "micro-2k", "ranks": 8})
    with open(queue.path, "ab") as handle:  # a submit killed mid-write
        handle.write(b'{"record":"job","job_id":"job-0001-')
    assert [job.job_id for job in queue.load()] == [first.job_id]
    second = queue.submit(KIND_CELL, {"family": "micro-64mb", "ranks": 8})
    assert [job.job_id for job in queue.load()] == [first.job_id, second.job_id]
    assert queue.validate() == []
    with open(queue.path, "a", encoding="utf-8") as handle:
        handle.write("not json\n{}\n")
    for operation in (queue.load, lambda: queue.submit(KIND_CELL, {})):
        with pytest.raises(StorageError, match=f"{queue.path}:3: not a JSON record"):
            operation()
