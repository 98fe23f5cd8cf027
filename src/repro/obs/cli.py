"""``python -m repro.obs`` — traces, campaigns and explanations.

Examples::

    # Run micro-2k@8 under S-LocW and export a Perfetto-loadable trace.
    python -m repro.obs export --config S-LocW --out trace.json

    # All four Table I configurations of one workflow, plus raw dumps.
    python -m repro.obs export --family gtc+readonly --ranks 16 \\
        --config all --out trace.json --spans-out spans.jsonl \\
        --metrics-out metrics.jsonl --manifest-out manifest.json

    # Where did the virtual time go?
    python -m repro.obs summary --config all

    # Schema-check a trace file (used by CI on its exported artifact).
    python -m repro.obs validate trace.json

    # Campaigns: persistent suite runs, regression diffs, dashboards.
    # `campaign diff` is the one diff: drift, flips, coverage and every
    # attribution shift, each with a "why" line.
    python -m repro.obs campaign run --suite micro
    python -m repro.obs campaign run --suite micro --cal-set remote_write_knee=4
    python -m repro.obs campaign list
    python -m repro.obs campaign diff micro-001 micro-002 --fail-on flips
    python -m repro.obs campaign report micro-001 --out report.md
    python -m repro.obs campaign validate micro-001

    # Trace analytics: critical path + blame per run, campaign
    # bottleneck ranking.
    python -m repro.obs explain run --family gtc+matmult --config all \\
        --segments --out explain.json
    python -m repro.obs explain top baseline-micro
    python -m repro.obs explain validate explain.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.apps.suite import CONCURRENCY_LEVELS, FAMILIES, suite_entry
from repro.core.configs import ALL_CONFIGS, SchedulerConfig
from repro.errors import CalibrationError, ConfigurationError, ReproError
from repro.obs.capture import Observation, observe_workflow
from repro.obs.export import (
    chrome_trace,
    metrics_records,
    span_records,
    to_json,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.report import hot_phase_report, utilization_report
from repro.obs.store import DEFAULT_CAMPAIGN_DIR, CampaignStore
from repro.pmem.calibration import OptaneCalibration, calibration_from_settings


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        default="micro-2k",
        choices=FAMILIES,
        help="workload family (default: micro-2k)",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=CONCURRENCY_LEVELS[0],
        choices=CONCURRENCY_LEVELS,
        help=f"ranks per component (default: {CONCURRENCY_LEVELS[0]})",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the family's iteration count (smaller = faster)",
    )
    parser.add_argument(
        "--config",
        default="S-LocW",
        help="Table I label (S-LocW, S-LocR, P-LocW, P-LocR) or 'all'",
    )


def _configs(label: str) -> List[SchedulerConfig]:
    if label.strip().lower() == "all":
        return list(ALL_CONFIGS)
    return [SchedulerConfig.from_label(label)]


def _observe(args: argparse.Namespace) -> List[Observation]:
    spec = suite_entry(args.family, args.ranks).spec
    if args.iterations is not None:
        if args.iterations <= 0:
            raise SystemExit("--iterations must be positive")
        spec = dataclasses.replace(spec, iterations=args.iterations)
    return [observe_workflow(spec, config) for config in _configs(args.config)]


def _write(path: str, payload: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def _cmd_export(args: argparse.Namespace) -> int:
    observations = _observe(args)
    document = chrome_trace(observations)
    _write(args.out, to_json(document))
    print(
        f"wrote {args.out}: {len(document['traceEvents'])} events, "
        f"{len(observations)} run(s)"
    )
    if args.spans_out:
        _write(args.spans_out, to_jsonl(span_records(observations)))
        print(f"wrote {args.spans_out}")
    if args.metrics_out:
        _write(args.metrics_out, to_jsonl(metrics_records(observations)))
        print(f"wrote {args.metrics_out}")
    if args.manifest_out:
        manifests = [obs.manifest.as_dict() for obs in observations]
        _write(args.manifest_out, to_json(manifests))
        print(f"wrote {args.manifest_out}")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    observations = _observe(args)
    print(hot_phase_report(observations))
    print()
    print(utilization_report(observations))
    return 0


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = validate_chrome_trace(_load(args.trace))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.trace}: INVALID ({len(problems)} problem(s))")
        return 1
    print(f"{args.trace}: OK")
    return 0


# ----------------------------------------------------------------------
# Campaign subcommands.
# ----------------------------------------------------------------------
def _calibration(settings: List[str]) -> OptaneCalibration:
    """Apply repeatable ``--cal-set field=value`` overrides.

    A malformed setting, an unknown field or a calibration that fails
    :meth:`OptaneCalibration.validate` exits 2 before anything is run or
    stored.
    """
    try:
        return calibration_from_settings(settings)
    except CalibrationError as error:
        print(f"error: --cal-set: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.obs.campaign import campaign_report, run_campaign

    cal = _calibration(args.cal_set)
    store = CampaignStore(args.dir)
    run = run_campaign(
        suite=args.suite,
        name=args.name,
        store=store,
        configs=_configs(args.config),
        cal=cal,
        iterations=args.iterations,
        profile=args.profile,
        profile_top=args.profile_top,
        jobs=args.jobs,
        progress=print,
    )
    print(f"recorded campaign {run.name!r} in {store.path(run.name)}")
    print()
    print(campaign_report(run))
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    store = CampaignStore(args.dir)
    names = store.list_campaigns()
    if not names:
        print(f"no campaigns under {store.root!r}")
        return 0
    for name in names:
        stored = store.read(name)
        header = stored.header
        print(
            f"{name}: suite={header.get('suite', '?')} "
            f"cells={len(stored.cells)} "
            f"cal={str(header.get('calibration_sha256', ''))[:12]}"
        )
    return 0


def _cmd_campaign_diff(args: argparse.Namespace) -> int:
    from repro.obs.campaign import (
        campaign_from_store,
        check_drift_threshold,
        diff_campaigns,
    )

    try:
        check_drift_threshold(args.threshold)
    except ConfigurationError as error:
        print(f"error: --threshold: {error}", file=sys.stderr)
        return 2
    store = CampaignStore(args.dir)
    run_a = campaign_from_store(store.read(args.campaign_a))
    run_b = campaign_from_store(store.read(args.campaign_b))
    diff = diff_campaigns(run_a, run_b, threshold=args.threshold)
    print(diff.render_text())
    if args.fail_on == "flips" and diff.winner_flips:
        return 1
    if args.fail_on == "regressions" and diff.regressions:
        return 1
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.obs.campaign import campaign_from_store, campaign_report

    store = CampaignStore(args.dir)
    run = campaign_from_store(store.read(args.name))
    report = campaign_report(run)
    if args.out:
        _write(args.out, report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_campaign_validate(args: argparse.Namespace) -> int:
    store = CampaignStore(args.dir)
    names = args.names or store.list_campaigns()
    failures = 0
    for name in names:
        problems = store.validate(name)
        if problems:
            failures += 1
            for problem in problems:
                print(f"{name}: {problem}", file=sys.stderr)
            print(f"{name}: INVALID ({len(problems)} problem(s))")
        else:
            print(f"{name}: OK")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Explain subcommands (trace analytics).
# ----------------------------------------------------------------------
def _cmd_explain_run(args: argparse.Namespace) -> int:
    from repro.obs.explain import (
        explain_observation,
        explain_report,
        validate_explain_report,
    )

    explanations = [explain_observation(obs) for obs in _observe(args)]
    if args.format == "json":
        document = explain_report(explanations)
        problems = validate_explain_report(document)
        if problems:  # pragma: no cover - invariant violation
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        payload = to_json(document)
    else:
        payload = "\n".join(
            e.render_text(segments=args.segments) for e in explanations
        )
    if args.out:
        _write(args.out, payload if payload.endswith("\n") else payload + "\n")
        print(f"wrote {args.out}: {len(explanations)} run(s)")
    else:
        print(payload)
    return 0


def _cmd_explain_top(args: argparse.Namespace) -> int:
    from repro.obs.campaign import campaign_from_store
    from repro.obs.explain import campaign_bottlenecks, render_top

    cells = campaign_from_store(CampaignStore(args.dir).read(args.name)).cells
    print(render_top(campaign_bottlenecks(cells)))
    return 0


def _cmd_explain_validate(args: argparse.Namespace) -> int:
    from repro.obs.explain import validate_explain_report

    problems = validate_explain_report(_load(args.report))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.report}: INVALID ({len(problems)} problem(s))")
        return 1
    print(f"{args.report}: OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Export and inspect virtual-time observability data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    export = commands.add_parser(
        "export", help="run a workflow and export its trace"
    )
    _add_spec_arguments(export)
    export.add_argument(
        "--out", default="trace.json", help="Chrome trace-event JSON path"
    )
    export.add_argument(
        "--spans-out", default=None, help="also dump spans as JSONL"
    )
    export.add_argument(
        "--metrics-out", default=None, help="also dump instruments as JSONL"
    )
    export.add_argument(
        "--manifest-out", default=None, help="also dump run manifests as JSON"
    )
    export.set_defaults(func=_cmd_export)

    summary = commands.add_parser(
        "summary", help="run a workflow and print the hot-phase report"
    )
    _add_spec_arguments(summary)
    summary.set_defaults(func=_cmd_summary)

    validate = commands.add_parser(
        "validate", help="schema-check an exported trace file"
    )
    validate.add_argument("trace")
    validate.set_defaults(func=_cmd_validate)

    campaign = commands.add_parser(
        "campaign", help="persistent campaign store: run, diff, report"
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _add_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dir",
            default=DEFAULT_CAMPAIGN_DIR,
            help=f"campaign store directory (default: {DEFAULT_CAMPAIGN_DIR})",
        )

    run = campaign_commands.add_parser(
        "run", help="execute a suite and append it to the store"
    )
    _add_dir(run)
    run.add_argument(
        "--suite",
        default="micro",
        help="suite preset: micro (CI-sized) or full (18 workflows)",
    )
    run.add_argument(
        "--name", default=None, help="campaign name (default: <suite>-NNN)"
    )
    run.add_argument(
        "--config",
        default="all",
        help="Table I label or 'all' (default: all four configurations)",
    )
    run.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override every cell's iteration count",
    )
    run.add_argument(
        "--cal-set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a calibration field (repeatable)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each cell and record hotspot tables and the "
        "tracemalloc allocation peak (slows the simulator several-fold)",
    )
    run.add_argument(
        "--profile-top",
        type=int,
        default=None,
        help="hotspot rows kept per cell (default: 10)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="execute cells in N worker processes (default 1 = serial; "
        "the stored file is byte-identical either way)",
    )
    run.set_defaults(func=_cmd_campaign_run)

    listing = campaign_commands.add_parser(
        "list", help="list campaigns in the store"
    )
    _add_dir(listing)
    listing.set_defaults(func=_cmd_campaign_list)

    campaign_diff = campaign_commands.add_parser(
        "diff", help="regression-diff two stored campaigns"
    )
    _add_dir(campaign_diff)
    campaign_diff.add_argument("campaign_a")
    campaign_diff.add_argument("campaign_b")
    campaign_diff.add_argument(
        "--threshold",
        type=float,
        default=0.02,
        help="relative makespan drift reported as regression (default: 0.02)",
    )
    campaign_diff.add_argument(
        "--fail-on",
        choices=("nothing", "flips", "regressions"),
        default="flips",
        help="exit 1 on winner flips (default) or any regression",
    )
    campaign_diff.set_defaults(func=_cmd_campaign_diff)

    campaign_report_cmd = campaign_commands.add_parser(
        "report", help="write a stored campaign's markdown dashboard"
    )
    _add_dir(campaign_report_cmd)
    campaign_report_cmd.add_argument("name")
    campaign_report_cmd.add_argument(
        "--out", default=None, help="write to this path instead of stdout"
    )
    campaign_report_cmd.set_defaults(func=_cmd_campaign_report)

    campaign_validate = campaign_commands.add_parser(
        "validate", help="schema-check stored campaigns"
    )
    _add_dir(campaign_validate)
    campaign_validate.add_argument(
        "names", nargs="*", help="campaign names (default: every campaign)"
    )
    campaign_validate.set_defaults(func=_cmd_campaign_validate)

    explain = commands.add_parser(
        "explain",
        help="trace analytics: critical paths, blame buckets, bottlenecks",
    )
    explain_commands = explain.add_subparsers(
        dest="explain_command", required=True
    )

    explain_run = explain_commands.add_parser(
        "run", help="run a workflow and explain where its makespan went"
    )
    _add_spec_arguments(explain_run)
    explain_run.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output renderer (default: text)",
    )
    explain_run.add_argument(
        "--segments",
        action="store_true",
        help="also print the critical-path segment chain (text format)",
    )
    explain_run.add_argument(
        "--out", default=None, help="write to this path instead of stdout"
    )
    explain_run.set_defaults(func=_cmd_explain_run)

    explain_top = explain_commands.add_parser(
        "top", help="rank a stored campaign's cells by winner bottleneck"
    )
    _add_dir(explain_top)
    explain_top.add_argument("name")
    explain_top.set_defaults(func=_cmd_explain_top)

    explain_validate = explain_commands.add_parser(
        "validate", help="schema-check an explain report file"
    )
    explain_validate.add_argument("report")
    explain_validate.set_defaults(func=_cmd_explain_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
