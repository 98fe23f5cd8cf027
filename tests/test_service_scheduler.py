"""Service scheduler: cache-served reruns, retries, drain, determinism."""

import json
import random
import time

import pytest

from repro.obs.store import CampaignStore, StoredCell, canonical_json
from repro.service.cache import PENDING_CAMPAIGN, ResultCache
from repro.service.queue import KIND_CELL, STATE_FAILED, JobQueue
from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "service")


def _submit_micro(scheduler):
    return scheduler.submit_suite(suite="micro")


def test_first_run_executes_second_run_hits_cache(root):
    scheduler = ServiceScheduler(root=root)
    jobs = _submit_micro(scheduler)
    assert len(jobs) == 2
    assert all(job.cell_id for job in jobs)

    first = scheduler.run()
    assert first.executed == 2
    assert first.cache_misses == 2
    assert first.cache_hits == 0
    assert first.cells_appended == 2
    assert first.failed == 0

    # Same cells again: everything is served from cache, and the
    # deterministic campaign gains zero new records.
    _submit_micro(scheduler)
    second = ServiceScheduler(root=root).run()
    assert second.cache_hits == 2
    assert second.cache_misses == 0
    assert second.executed == 0
    assert second.cache_hit_rate == 1.0
    assert second.cells_appended == 0

    store = CampaignStore(scheduler.store.root)
    assert len(store.read(RESULTS_CAMPAIGN).cells) == 2
    # Only CampaignStore writes the results file, so every line is in the
    # canonical form byte-identity checks rely on.
    with open(store.path(RESULTS_CAMPAIGN), encoding="utf-8") as handle:
        for line in handle:
            assert line == canonical_json(json.loads(line)) + "\n"
    # The run reports regret for every completed cell, hit or fresh.
    assert len(first.regrets) == 2
    assert len(second.regrets) == 2
    assert {entry["key"] for entry in second.regrets} == {
        "micro-64mb@8",
        "micro-2k@8",
    }


def test_other_matmul_dim_misses_the_default_cells_cache(root):
    scheduler = ServiceScheduler(root=root)
    cells = [("miniamr+matmult", 8)]
    kwargs = {"cells": cells, "iterations": 1, "configs": ["P-LocR"]}
    (default,) = scheduler.submit_suite("adhoc", **kwargs)
    assert scheduler.run().executed == 1
    # The kernel differs, so the result cached for the default cell must
    # not be served to this job.
    (wider,) = scheduler.submit_suite("adhoc", matmul_dim=24, **kwargs)
    assert wider.cell_id != default.cell_id
    report = ServiceScheduler(root=root).run()
    assert report.cache_hits == 0
    assert report.cache_misses == 1
    assert report.executed == 1
    cells = CampaignStore(scheduler.store.root).read(RESULTS_CAMPAIGN).cells
    assert [cell.deterministic["workflow"] for cell in cells] == [
        "miniamr+matmult@8",
        "miniamr+matmult@8/dim24",
    ]


def test_report_record_shape(root):
    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    report = scheduler.run()
    record = report.as_record()
    assert record["record"] == "service_run"
    assert record["cache_hit_rate"] == 0.0
    assert record["cells_appended"] == 2
    assert "executed" in report.render_text()


def test_malformed_job_fails_after_retry_budget(root):
    scheduler = ServiceScheduler(root=root, backoff_seconds=0.0)
    queue = JobQueue(root)
    job = queue.submit(
        KIND_CELL,
        {"family": "no-such-family", "ranks": 8, "iterations": 2},
        max_retries=1,
    )
    report = scheduler.run()
    assert report.failed == 1
    assert report.retried == 1
    assert report.executed == 0
    final = queue.load()[0]
    assert final.job_id == job.job_id
    assert final.state == STATE_FAILED
    assert final.attempts == 2
    assert final.detail["reason"] == "retries exhausted"


def test_expired_deadline_fails_without_running(root):
    scheduler = ServiceScheduler(root=root)
    queue = JobQueue(root)
    queue.submit(
        KIND_CELL,
        {"family": "micro-2k", "ranks": 8, "iterations": 2},
        deadline_epoch=time.time() - 60.0,
    )
    report = scheduler.run()
    assert report.expired == 1
    assert report.failed == 1
    assert report.executed == 0
    assert queue.load()[0].detail == {"reason": "deadline expired"}


def test_drain_releases_jobs_without_consuming_attempts(root):
    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    report = scheduler.run(should_stop=lambda: True)
    assert report.drained
    assert report.executed == 0
    assert report.failed == 0
    queue = JobQueue(root)
    # Jobs are still queued with their full retry budget.
    assert len(queue.queued()) == 2
    assert all(job.attempts == 0 for job in queue.queued())


def test_persisted_cells_independent_of_completion_order(tmp_path):
    """Shuffled completion order must yield a byte-identical store file."""

    def synthetic_cells():
        return [
            StoredCell(
                cell_id=f"{index:016x}",
                key=f"wf-{index}@8",
                deterministic={"winner": "S-LocR", "index": index},
                host={"kind": "simulated", "wall_seconds": float(index)},
                provenance={},
            )
            for index in range(8)
        ]

    rng = random.Random(42)
    paths = []
    for trial in range(3):
        root = str(tmp_path / f"svc-{trial}")
        scheduler = ServiceScheduler(root=root)
        cells = synthetic_cells()
        rng.shuffle(cells)
        for cell in cells:
            assert scheduler.cache.put(cell)
        assert scheduler.cache.fold() == 8
        paths.append(scheduler.store.path(RESULTS_CAMPAIGN))
    contents = [open(path, "rb").read() for path in paths]
    assert contents[0] == contents[1] == contents[2]


def test_campaign_jobs_parallel_matches_serial_bytes(tmp_path):
    """run_campaign --jobs 2 stores the same deterministic payload as serial."""
    import json

    from repro.obs.campaign import run_campaign

    digests = []
    for jobs in (1, 2):
        store = CampaignStore(str(tmp_path / f"jobs{jobs}"))
        run_campaign(suite="micro", name="micro-001", store=store, jobs=jobs)
        stripped = []
        with open(store.path("micro-001"), "r", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                record.pop("host", None)
                stripped.append(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                )
        digests.append("\n".join(stripped))
    assert digests[0] == digests[1]


def test_experiment_jobs_share_the_cell_retry_loop(root):
    """A failing experiment is retried with the same backoff cells get."""
    from repro.service.telemetry import ServiceTelemetry

    telemetry = ServiceTelemetry(root)
    scheduler = ServiceScheduler(
        root=root, backoff_seconds=0.0, telemetry=telemetry
    )
    good, bad = scheduler.submit_experiments(
        ["table01", "no-such-experiment"], max_retries=1
    )
    report = scheduler.run()
    assert report.experiments == 1
    assert report.failed == 1
    assert report.retried == 1
    jobs = {job.job_id: job for job in JobQueue(root).load()}
    assert jobs[good.job_id].state == "done"
    assert jobs[good.job_id].detail["experiment"] == "table01"
    assert jobs[bad.job_id].state == STATE_FAILED
    assert jobs[bad.job_id].attempts == 2
    backoffs = [span for span in telemetry.recorder.spans if span.name == "backoff"]
    assert len(backoffs) == 1


def test_drain_before_dispatch_counts_experiments_skipped(root):
    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    scheduler.submit_experiments(["table01"])
    report = scheduler.run(should_stop=lambda: True)
    assert report.drained
    assert report.skipped == 1
    assert report.experiments == 0
    assert len(JobQueue(root).queued()) == 3


def test_submit_suite_explicit_cells(root):
    scheduler = ServiceScheduler(root=root)
    jobs = scheduler.submit_suite(
        "adhoc", cells=[("micro-2k", 8)], iterations=1, profile_top=3
    )
    assert [job.payload["family"] for job in jobs] == ["micro-2k"]
    assert jobs[0].payload["iterations"] == 1
    assert jobs[0].payload["profile_top"] == 3


def test_parallel_campaign_reports_failed_cell(monkeypatch):
    """A cell that fails every attempt surfaces as ConfigurationError."""
    from repro.core.configs import ALL_CONFIGS
    from repro.errors import ConfigurationError
    from repro.obs import campaign
    from repro.pmem.calibration import DEFAULT_CALIBRATION

    def boom(**_kwargs):
        raise RuntimeError("simulated worker failure")

    monkeypatch.setattr(campaign, "run_cell", boom)
    with pytest.raises(ConfigurationError, match="simulated worker failure"):
        # jobs=1 keeps the worker in this process, where the patch applies.
        campaign._run_through_service(
            [("micro-2k", 8)],
            suite="adhoc",
            jobs=1,
            configs=ALL_CONFIGS,
            cal=DEFAULT_CALIBRATION,
            iterations=1,
        )


def test_report_independent_of_completion_order(tmp_path):
    """Serial and two-worker passes report the same, regrets included."""
    records = []
    for jobs in (1, 2):
        root = str(tmp_path / f"jobs{jobs}")
        scheduler = ServiceScheduler(root=root, jobs=jobs)
        _submit_micro(scheduler)
        record = scheduler.run().as_record()
        del record["wall_seconds"], record["jobs"]
        records.append(record)
    assert records[0] == records[1]
    assert len(records[0]["regrets"]) == 2


def _patch_task(monkeypatch, before_call):
    """Wrap the scheduler's task function; *before_call(n)* runs first."""
    from repro.service import scheduler as scheduler_module

    real = scheduler_module.execute_job
    calls = []

    def wrapped(envelope):
        calls.append(envelope)
        before_call(len(calls))
        return real(envelope)

    monkeypatch.setattr(scheduler_module, "execute_job", wrapped)
    return calls


def test_jobs_settle_as_their_task_returns(root, monkeypatch):
    """The first job is done and cached before the second task starts."""
    scheduler = ServiceScheduler(root=root)
    _submit_micro(scheduler)
    seen = []

    def check(call):
        if call == 2:
            jobs = JobQueue(root).load()
            seen.extend(job.state for job in jobs)
            done = [job for job in jobs if job.state == "done"]
            assert len(done) == 1
            # Durable: a cache reading the disk afresh serves it.
            assert ResultCache(root).get(done[0].cell_id) is not None

    _patch_task(monkeypatch, check)
    report = scheduler.run()
    assert report.executed == 2
    assert sorted(seen) == ["done", "running"]


def test_killed_pass_keeps_finished_cells(root, monkeypatch):
    """A pass aborted mid-round loses only the cell it was running."""
    scheduler = ServiceScheduler(root=root)
    jobs = _submit_micro(scheduler)

    def interrupt_second(call):
        if call == 2:
            raise KeyboardInterrupt

    calls = _patch_task(monkeypatch, interrupt_second)
    with pytest.raises(KeyboardInterrupt):
        scheduler.run()
    assert len(calls) == 2
    # The finished cell waits in `pending`; the pass never reached its fold.
    assert not scheduler.store.exists(RESULTS_CAMPAIGN)
    assert len(scheduler.store.read(PENDING_CAMPAIGN).cells) == 1

    second = ServiceScheduler(root=root).run()
    assert second.executed == 1
    assert second.cells_appended == 2
    cells = scheduler.store.read(RESULTS_CAMPAIGN).cells
    cell_ids = [cell.cell_id for cell in cells]
    assert cell_ids == sorted(job.cell_id for job in jobs)
    assert not scheduler.store.exists(PENDING_CAMPAIGN)

    third = ServiceScheduler(root=root).run()
    assert third.executed == 0
    assert third.cells_appended == 0
    assert len(scheduler.store.read(RESULTS_CAMPAIGN).cells) == 2
