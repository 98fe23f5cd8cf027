"""End-to-end ``python -m repro.service`` CLI over the micro suite."""

import json
import os

import pytest

from repro.service.cli import main


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "service")


def test_full_cli_cycle_submit_run_rerun_status_cache(root, tmp_path, capsys):
    assert main(["submit", "--dir", root, "--suite", "micro"]) == 0
    out = capsys.readouterr().out
    assert "2 job(s) queued" in out
    assert "[cached]" not in out

    report_path = str(tmp_path / "report.json")
    assert main(["run", "--dir", root, "--report-out", report_path]) == 0
    out = capsys.readouterr().out
    assert "2 executed" in out
    report = json.load(open(report_path))
    assert report["cache_misses"] == 2
    assert report["cells_appended"] == 2

    # Resubmitting identical work: submit already flags the jobs as cached,
    # and the second run is >= 90% cache hits with zero new records.
    assert main(["submit", "--dir", root, "--suite", "micro"]) == 0
    assert capsys.readouterr().out.count("[cached]") == 2
    assert main(["run", "--dir", root, "--report-out", report_path]) == 0
    report = json.load(open(report_path))
    assert report["cache_hit_rate"] >= 0.9
    assert report["cells_appended"] == 0
    assert report["executed"] == 0
    capsys.readouterr()

    assert main(["status", "--dir", root, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["counts"]["done"] == 4
    assert status["counts"]["queued"] == 0
    assert status["campaign_cells"] == 2
    assert all(job["cached"] for job in status["jobs"])

    # The cache is the results campaign: no cache directory, nothing left
    # pending after a completed pass, and no `cache` subcommand.
    assert sorted(os.listdir(os.path.join(root, "campaigns"))) == ["results.jsonl"]
    assert not os.path.exists(os.path.join(root, "cache"))
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "--dir", root])
    assert excinfo.value.code == 2


def test_cli_drain_fails_queued_jobs(root, capsys):
    assert main(["submit", "--dir", root, "--suite", "micro"]) == 0
    capsys.readouterr()
    assert main(["drain", "--dir", root]) == 0
    assert "drained 2 job(s)" in capsys.readouterr().out
    assert main(["status", "--dir", root, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["counts"]["failed"] == 2
    assert status["counts"]["queued"] == 0


def test_cli_run_exits_nonzero_on_failed_jobs(root, capsys):
    from repro.service.queue import KIND_CELL, JobQueue

    JobQueue(root).submit(
        KIND_CELL,
        {"family": "no-such-family", "ranks": 8, "iterations": 2},
        max_retries=0,
    )
    assert main(["run", "--dir", root, "--backoff", "0"]) == 1
    assert "1 failed" in capsys.readouterr().out


def test_cli_rejects_unknown_suite(root, capsys):
    assert main(["submit", "--dir", root, "--suite", "galactic"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_cli_submit_experiment_jobs(root, capsys):
    assert main(["submit", "--dir", root, "--experiment", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "(experiment)" in out
    assert "1 job(s) queued" in out


@pytest.mark.parametrize(
    "setting",
    ["read_ramp_scale=nan", "write_decay=inf", "no_such_field=1", "nonsense"],
)
def test_invalid_cal_set_exits_2_before_queueing(root, capsys, setting):
    assert main(["submit", "--dir", root, "--cal-set", setting]) == 2
    assert capsys.readouterr().err.startswith("error: --cal-set: ")
    assert not os.path.exists(os.path.join(root, "queue.jsonl"))


def test_cal_set_reaches_the_job_payload(root, capsys):
    assert main(["submit", "--dir", root, "--cal-set", "write_decay=0.5"]) == 0
    capsys.readouterr()
    from repro.service.queue import JobQueue

    jobs = JobQueue(root).load()
    assert jobs and all(
        job.payload["calibration"]["write_decay"] == 0.5 for job in jobs
    )


@pytest.mark.parametrize("flag", ["--timeout", "--deadline"])
@pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
def test_nonpositive_or_nonfinite_limits_exit_1_before_queueing(
    root, capsys, flag, value
):
    args = ["submit", "--dir", root, "--suite", "micro", flag, value]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(os.path.join(root, "queue.jsonl"))


def test_experiment_deadline_is_checked_before_queueing(root, capsys):
    args = ["submit", "--dir", root, "--experiment", "table01"]
    assert main(args) == 0
    path = os.path.join(root, "queue.jsonl")
    with open(path, "rb") as handle:
        before = handle.read()
    assert main(args + ["--deadline", "-5"]) == 1
    assert "deadline_seconds" in capsys.readouterr().err
    with open(path, "rb") as handle:
        assert handle.read() == before


def test_torn_pending_tail_and_corrupt_results_line(root, capsys):
    """A pass killed inside an append leaves a torn last line: `run` and
    `status` skip it; a corrupt earlier line is an `error: path:line`."""
    assert main(["submit", "--dir", root, "--suite", "micro"]) == 0
    assert main(["run", "--dir", root]) == 0
    campaigns = os.path.join(root, "campaigns")
    results = os.path.join(campaigns, "results.jsonl")
    with open(results, "rb") as handle:
        header, cell_line = handle.read().split(b"\n")[:2]
    assert len(cell_line) > 2000
    pending = os.path.join(campaigns, "pending.jsonl")
    with open(pending, "wb") as handle:
        handle.write(header.replace(b'"results"', b'"pending"') + b"\n")
        handle.write(cell_line[:2000])
    capsys.readouterr()
    assert main(["status", "--dir", root]) == 0
    assert main(["submit", "--dir", root, "--suite", "micro"]) == 0
    assert main(["run", "--dir", root]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(campaigns)) == ["results.jsonl"]

    with open(results, "rb") as handle:
        lines = handle.read().split(b"\n")
    lines[1] = lines[1][:2000]
    with open(results, "wb") as handle:
        handle.write(b"\n".join(lines))
    for command in ("status", "run"):
        assert main([command, "--dir", root]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{results}:2: not a JSON record" in err
