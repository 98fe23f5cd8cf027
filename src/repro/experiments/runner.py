"""Command-line entry point: ``python -m repro.experiments`` / ``repro-experiments``.

Examples::

    repro-experiments list
    repro-experiments fig04
    repro-experiments all
    repro-experiments all --markdown > EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.core.autotune import ExhaustiveTuner
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import get_experiment, list_experiments


def _markdown_report(results: List[ExperimentResult]) -> str:
    """Render all experiment results as the EXPERIMENTS.md report."""
    total = sum(len(r.claims) for r in results)
    held = sum(r.claims_held for r in results)
    lines = [
        "# EXPERIMENTS — paper vs. reproduction",
        "",
        "Auto-generated by `repro-experiments all --markdown`.",
        "",
        f"**Summary: {held}/{total} quantified paper claims reproduced** "
        "(winner claims require the exact configuration; magnitude claims "
        "require the same direction and a loose magnitude band — our "
        "substrate is a calibrated simulator, not the authors' testbed).",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append("")
        description = " ".join(result.description.split())
        lines.append(description)
        lines.append("")
        if result.claims:
            lines.append("| claim | paper | measured | status |")
            lines.append("|---|---|---|---|")
            for claim in result.claims:
                status = "reproduced" if claim.holds else "**MISS**"
                note = f" ({claim.note})" if claim.note else ""
                lines.append(
                    f"| {claim.description}{note} | {claim.paper_value} "
                    f"| {claim.measured_value} | {status} |"
                )
            lines.append("")
        for artifact in result.artifacts:
            lines.append("```")
            lines.append(artifact)
            lines.append("```")
            lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Re-generate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment ID, 'all', or 'list'",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown report (for EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="observe every simulated run and export a Chrome trace-event "
        "JSON (load it in Perfetto; see `python -m repro.obs`)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="observe every simulated run and dump all probe instruments "
        "as JSONL",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes of the --service DIR pass (default 1)",
    )
    parser.add_argument(
        "--service",
        default=None,
        metavar="DIR",
        help="submit the experiments to the repro.service queue under DIR "
        "and run one service pass instead of executing in-process",
    )
    args = parser.parse_args(argv)

    # Fail fast on a broken platform/calibration table: every experiment
    # depends on these, and a bad table produces plausible-but-wrong
    # runtimes rather than crashes (see repro.analysis.validate).
    from repro.analysis.diagnostics import Severity, render_text
    from repro.analysis.validate import validate_platform_tables

    diagnostics = validate_platform_tables()
    if any(d.severity is Severity.ERROR for d in diagnostics):
        print(render_text(diagnostics), file=sys.stderr)
        return 1

    if args.experiment == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.experiment == "all":
        ids = list_experiments()
    else:
        ids = [args.experiment]

    observing = args.trace_out or args.metrics_out
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.jobs > 1 and args.service is None:
        # Parallel runs go through the service, the one parallel executor.
        print(
            "error: --jobs > 1 needs --service DIR (or queue the experiments "
            "with `repro-service submit --experiment ID` and run the service)",
            file=sys.stderr,
        )
        return 2
    if observing and args.service is not None:
        # Observation capture hooks run_workflow through an in-process
        # context variable; worker processes never see it.
        print(
            "error: --trace-out/--metrics-out capture in-process and "
            "cannot combine with --service",
            file=sys.stderr,
        )
        return 2

    if args.service is not None:
        from repro.service.scheduler import ServiceScheduler

        scheduler = ServiceScheduler(root=args.service, jobs=args.jobs)
        for job in scheduler.submit_experiments(ids):
            print(f"submitted {job.job_id}", file=sys.stderr)
        report = scheduler.run(
            progress=lambda message: print(message, file=sys.stderr)
        )
        print(report.render_text())
        return 1 if report.failed else 0

    # One tuner per invocation: every experiment reads its reports, so each
    # (spec, config) cell is simulated once however many views show it.
    tuner = ExhaustiveTuner()
    capture = nullcontext()
    if observing:
        # Capture context: every run_workflow call inside the experiments
        # gets an Observation without threading a parameter through the
        # whole experiment registry.
        from repro.obs.capture import capture_runs

        capture = capture_runs()
    with capture as session:
        results = [get_experiment(experiment_id)(tuner) for experiment_id in ids]
    if observing:
        observations = session.finalized
        from repro.obs.export import (
            chrome_trace,
            metrics_records,
            to_json,
            to_jsonl,
        )

        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(to_json(chrome_trace(observations)))
            print(
                f"[trace: {len(observations)} observed run(s) -> {args.trace_out}]",
                file=sys.stderr,
            )
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(to_jsonl(metrics_records(observations)))
            print(f"[metrics -> {args.metrics_out}]", file=sys.stderr)

    if args.markdown:
        print(_markdown_report(results))
    else:
        for result in results:
            print(result.render())
            print()
    print(
        f"[{sum(r.claims_held for r in results)}/{sum(len(r.claims) for r in results)}"
        " claims reproduced]",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
