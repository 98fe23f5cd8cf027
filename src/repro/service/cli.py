"""``python -m repro.service`` / ``repro-service`` — the service CLI.

Subcommands::

    submit   put suite cells (or experiments) on the persistent queue
    run      one service pass: cache, schedule, execute, record
    status   queue counts, per-job states and the results campaign
             (``--watch`` turns it into a refreshing terminal dashboard)
    drain    requeue stale running jobs, then fail everything queued

A typical campaign rerun::

    repro-service submit --suite micro
    repro-service run --jobs 2 --report-out report.json
    repro-service submit --suite micro      # same cells again
    repro-service run --jobs 2             # 100% cache hits, no simulation

A cache hit is a cell already stored under ``<dir>/campaigns/``: in the
``results`` campaign, or in ``pending``, where a running (or killed) pass
keeps the cells it finished until its end folds them into ``results``.

``run`` records live telemetry by default (snapshots appended to
``<dir>/telemetry.jsonl``; disable with ``--no-telemetry``) and can
additionally emit a stitched Chrome trace (``--trace-out``) in which each
job's wall-time service spans nest above the virtual-time simulation
spans its workers produced.  ``status`` reads the latest snapshot.

``run`` installs a SIGINT handler: the first Ctrl-C drains gracefully
(running cells finish, nothing new starts, queued jobs stay queued), a
second one interrupts as usual.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, Optional

from repro.errors import CalibrationError, ReproError
from repro.pmem.calibration import calibration_from_settings
from repro.service.queue import DEFAULT_SERVICE_DIR, JobQueue
from repro.service.scheduler import (
    RESULTS_CAMPAIGN,
    ServiceScheduler,
)
from repro.service.telemetry import TELEMETRY_FILENAME, ServiceTelemetry


def _add_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir",
        default=DEFAULT_SERVICE_DIR,
        help=f"service state directory (default: {DEFAULT_SERVICE_DIR!r})",
    )


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------
def _cmd_submit(args: argparse.Namespace) -> int:
    try:
        cal = calibration_from_settings(args.cal_set)
    except CalibrationError as error:
        print(f"error: --cal-set: {error}", file=sys.stderr)
        return 2
    scheduler = ServiceScheduler(root=args.dir)
    jobs = []
    if args.experiment:
        jobs += scheduler.submit_experiments(
            args.experiment,
            max_retries=args.max_retries,
            timeout_seconds=args.timeout,
            deadline_seconds=args.deadline,
        )
    else:
        jobs += scheduler.submit_suite(
            suite=args.suite,
            configs=args.config or None,
            iterations=args.iterations,
            matmul_dim=args.matmul_dim,
            calibration=dataclasses.asdict(cal) if args.cal_set else None,
            max_retries=args.max_retries,
            timeout_seconds=args.timeout,
            deadline_seconds=args.deadline,
        )
    for job in jobs:
        cached = " [cached]" if job.cell_id and job.cell_id in scheduler.cache else ""
        print(f"submitted {job.job_id} ({job.kind}){cached}")
    print(f"{len(jobs)} job(s) queued in {scheduler.queue.path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    telemetry = ServiceTelemetry(args.dir, enabled=not args.no_telemetry)
    plan = None
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            plan = json.load(handle)
    scheduler = ServiceScheduler(
        root=args.dir,
        strategy=args.strategy,
        jobs=args.jobs,
        backoff_seconds=args.backoff,
        telemetry=telemetry,
        plan=plan,
    )
    stop_requested = {"flag": False}

    def _on_sigint(signum: int, frame: Any) -> None:
        if stop_requested["flag"]:
            raise KeyboardInterrupt
        stop_requested["flag"] = True
        print(
            "[drain requested: running cells finish, nothing new starts; "
            "Ctrl-C again to interrupt]",
            file=sys.stderr,
        )

    previous = signal.signal(signal.SIGINT, _on_sigint)
    try:
        report = scheduler.run(
            should_stop=lambda: stop_requested["flag"], progress=print
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    print(report.render_text())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            json.dump(report.as_record(), handle, indent=1, sort_keys=True)
        print(f"[report -> {args.report_out}]")
    if telemetry.enabled:
        print(f"[telemetry snapshots -> {telemetry.snapshot_path}]")
        if args.trace_out:
            telemetry.write_trace(args.trace_out)
            print(f"[service trace -> {args.trace_out}]")
    elif args.trace_out:
        print("[--trace-out ignored: telemetry is disabled]", file=sys.stderr)
    return 1 if report.failed else 0


def _latest_snapshot(path: str) -> Optional[Dict[str, Any]]:
    """The last telemetry snapshot record in *path*, or None."""
    if not os.path.exists(path):
        return None
    last = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                last = line
    return json.loads(last) if last else None


def _snapshot_value(
    snapshot: Dict[str, Any], section: str, name: str, field_name: str = "value"
) -> Optional[float]:
    for entry in snapshot.get(section, []):
        if entry.get("name") == name and not entry.get("labels"):
            return entry.get(field_name)
    return None


def _top_bottleneck(
    snapshot: Optional[Dict[str, Any]], scheduler: ServiceScheduler
) -> Optional[Dict[str, Any]]:
    """The dashboard's top-bottleneck line: last explain pass, then store.

    Prefers the ``bottleneck`` key of the latest telemetry snapshot (the
    most dominated cell of the last service pass); when no snapshot
    carries one — telemetry disabled, or written before explain existed —
    falls back to ranking the results campaign's stored attributions.
    """
    if snapshot is not None and isinstance(snapshot.get("bottleneck"), dict):
        return snapshot["bottleneck"]
    if not scheduler.store.exists(RESULTS_CAMPAIGN):
        return None
    from repro.obs.campaign import campaign_from_store
    from repro.obs.explain import campaign_bottlenecks

    rows = campaign_bottlenecks(
        campaign_from_store(scheduler.store.read(RESULTS_CAMPAIGN)).cells
    )
    return rows[0] if rows else None


def _status_lines(args: argparse.Namespace) -> List[str]:
    """The operator view ``status`` prints (one frame of ``--watch``)."""
    queue = JobQueue(args.dir)
    scheduler = ServiceScheduler(root=args.dir)
    campaign_cells = (
        len(scheduler.store.read(RESULTS_CAMPAIGN).cells)
        if scheduler.store.exists(RESULTS_CAMPAIGN)
        else 0
    )
    jobs = queue.load()
    counts = queue.counts()
    lines = [
        "queue: "
        + ", ".join(f"{count} {state}" for state, count in counts.items())
    ]
    for job in jobs:
        cached = " [cached]" if job.cell_id and job.cell_id in scheduler.cache else ""
        lines.append(
            f"  {job.job_id}  {job.kind:<10}  {job.state:<7} "
            f"attempts={job.attempts}/{job.max_retries + 1}{cached}"
        )
    stale = queue.stale_running()
    if stale:
        lines.append(f"stale running job(s): {len(stale)}")
        for entry in stale:
            age = entry["age_seconds"]
            lines.append(
                f"  {entry['job_id']}  attempts={entry['attempts']}  "
                + (
                    f"running for {age:.1f}s"
                    if age is not None
                    else "age unknown (pre-timestamp log)"
                )
            )
    histogram = queue.attempts_histogram()
    if histogram:
        peak = max(histogram.values())
        lines.append("attempts histogram:")
        for attempts, count in histogram.items():
            bar = "#" * max(1, round(count * 40 / peak))
            lines.append(f"  {attempts:>2} attempt(s) | {bar} {count}")
    snapshot = _latest_snapshot(os.path.join(args.dir, TELEMETRY_FILENAME))
    if snapshot is not None:
        depth = _snapshot_value(snapshot, "gauges", "repro_service_queue_depth")
        rate = _snapshot_value(
            snapshot, "gauges", "repro_service_jobs_per_second"
        )
        p99 = _snapshot_value(
            snapshot,
            "histograms",
            "repro_service_submit_result_latency_seconds",
            "p99",
        )
        hit_rate = _snapshot_value(
            snapshot, "gauges", "repro_service_cache_hit_rate"
        )
        parts = []
        if depth is not None:
            parts.append(f"depth {depth:.0f}")
        if rate is not None:
            parts.append(f"{rate:.2f} jobs/s")
        if p99 is not None:
            parts.append(f"p99 latency {p99:.3f}s")
        if hit_rate is not None:
            parts.append(f"cache hit rate {hit_rate:.0%}")
        tag = " (final)" if snapshot.get("final") else ""
        if parts:
            lines.append(f"telemetry{tag}: " + ", ".join(parts))
    bottleneck = _top_bottleneck(snapshot, scheduler)
    if bottleneck is not None:
        lines.append(
            f"top bottleneck: {bottleneck['key']} — {bottleneck['why']}"
            f" (winner {bottleneck.get('winner', '?')})"
        )
    lines.append(
        f"campaign {RESULTS_CAMPAIGN!r}: {campaign_cells} cell(s) under "
        f"{scheduler.store.root}"
    )
    return lines


def _cmd_status(args: argparse.Namespace) -> int:
    if args.json:
        queue = JobQueue(args.dir)
        scheduler = ServiceScheduler(root=args.dir)
        campaign_cells = (
            len(scheduler.store.read(RESULTS_CAMPAIGN).cells)
            if scheduler.store.exists(RESULTS_CAMPAIGN)
            else 0
        )
        snapshot = _latest_snapshot(
            os.path.join(args.dir, TELEMETRY_FILENAME)
        )
        payload = {
            "record": "service_status",
            "counts": queue.counts(),
            "campaign_cells": campaign_cells,
            "bottleneck": _top_bottleneck(snapshot, scheduler),
            "stale_running": queue.stale_running(),
            "attempts_histogram": {
                str(attempts): count
                for attempts, count in queue.attempts_histogram().items()
            },
            "jobs": [
                {
                    "job_id": job.job_id,
                    "kind": job.kind,
                    "state": job.state,
                    "attempts": job.attempts,
                    "max_retries": job.max_retries,
                    "cell_id": job.cell_id,
                    "cached": bool(job.cell_id and job.cell_id in scheduler.cache),
                    "detail": job.detail,
                }
                for job in queue.load()
            ],
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    frame = 0
    while True:
        lines = _status_lines(args)
        if args.watch:
            # Clear screen + home, then one full frame: a poor man's
            # top(1) that needs no curses and works over ssh.
            sys.stdout.write("\x1b[2J\x1b[H")
            lines.insert(0, f"repro-service status  (frame {frame + 1})")
        print("\n".join(lines), flush=True)
        frame += 1
        if not args.watch or (args.frames and frame >= args.frames):
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    queue = JobQueue(args.dir)
    drained = queue.drain()
    print(f"drained {len(drained)} job(s) from {queue.path}")
    return 0


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Balsam-style scheduling service for the reproduction: "
        "persistent job queue, parallel workers, content-addressed cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="queue suite cells or experiments")
    _add_dir(submit)
    submit.add_argument(
        "--suite", default="micro", help="suite preset (micro, full)"
    )
    submit.add_argument(
        "--config",
        action="append",
        default=[],
        help="restrict to a Table I label (repeatable; default all four)",
    )
    submit.add_argument(
        "--iterations", type=int, default=None, help="iteration override"
    )
    submit.add_argument(
        "--matmul-dim", type=int, default=None, help="MatrixMult dimension"
    )
    submit.add_argument(
        "--cal-set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a calibration field (repeatable)",
    )
    submit.add_argument(
        "--experiment",
        action="append",
        default=[],
        help="submit a repro-experiments id instead of suite cells "
        "(repeatable)",
    )
    submit.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="attempts after the first failure (default 2)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="fail the job if still queued after this many seconds",
    )
    submit.set_defaults(func=_cmd_submit)

    run = sub.add_parser("run", help="one service pass over the queue")
    _add_dir(run)
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial, no multiprocessing)",
    )
    run.add_argument(
        "--strategy",
        default="hybrid",
        choices=("table2", "model", "hybrid"),
        help="recommendation strategy for ordering and regret",
    )
    run.add_argument(
        "--backoff",
        type=float,
        default=0.1,
        help="base seconds of the exponential retry backoff",
    )
    run.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="optimizer plan JSON (python -m repro.core.optimize solve "
        "--out); overrides SJF prices for planned cells and reports "
        "regret vs the plan",
    )
    run.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the run report as JSON (the CI status artifact)",
    )
    run.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable wall-clock telemetry (no snapshots, spans, or gauges)",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the stitched Chrome trace (service spans over "
        "simulation spans, linked by trace_id)",
    )
    run.set_defaults(func=_cmd_run)

    status = sub.add_parser("status", help="queue / campaign summary")
    _add_dir(status)
    status.add_argument("--json", action="store_true", help="JSON output")
    status.add_argument(
        "--watch",
        action="store_true",
        help="refreshing terminal dashboard (Ctrl-C to leave)",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch refreshes (default 2)",
    )
    status.add_argument(
        "--frames",
        type=int,
        default=0,
        help="stop --watch after N frames (0 = until interrupted)",
    )
    status.set_defaults(func=_cmd_status)

    drain = sub.add_parser("drain", help="fail everything still queued")
    _add_dir(drain)
    drain.set_defaults(func=_cmd_drain)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
