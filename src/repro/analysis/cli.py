"""``python -m repro.analysis`` — run the static-analysis passes.

Examples::

    python -m repro.analysis src/                 # lint + platform tables
    python -m repro.analysis --list-rules
    python -m repro.analysis --platform-only      # just the platform tables

Two layers run by default:

* the per-file lint (``SIM1xx``) over every ``*.py`` given;
* the platform/calibration table validation (``PLAT3xx``) — part of the
  repository's correctness floor, checked in microseconds.

Determinism across processes (host clocks, hash seeds, iteration order
reaching a stored payload) is enforced at runtime, not here: see the
hash-seed oracle in ``tests/test_determinism.py``.

Exit status: 0 when no error-severity diagnostics were found, 1
otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.diagnostics import DiagnosticSink, Severity, render_text
from repro.analysis.rules import all_rules
from repro.analysis.simlint import lint_paths
from repro.analysis.validate import validate_calibration, validate_node


def run_analysis(
    paths: List[str], sink: DiagnosticSink, platform_only: bool = False
) -> None:
    """Everything the CLI checks: platform tables, then the lint of *paths*."""
    from repro.platform.builder import paper_testbed
    from repro.pmem.calibration import DEFAULT_CALIBRATION

    for diagnostic in validate_calibration(DEFAULT_CALIBRATION) + validate_node(
        paper_testbed(), DEFAULT_CALIBRATION
    ):
        sink.emit(diagnostic)
    if not platform_only:
        lint_paths(paths, sink=sink)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Determinism lint and platform validation for the simulator.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/ if present)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.add_argument(
        "--platform-only",
        action="store_true",
        help="skip source analysis; only validate platform/calibration tables",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  [{rule.severity.value}]  {rule.name}: {rule.summary}")
        return 0

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    for path in paths:
        if not os.path.exists(path):
            parser.error(f"no such file or directory: {path}")

    sink = DiagnosticSink()
    run_analysis(paths, sink, platform_only=args.platform_only)
    diagnostics = sink.sorted()
    print(render_text(diagnostics))
    return 1 if any(d.severity is Severity.ERROR for d in diagnostics) else 0


def entry() -> None:  # pragma: no cover - console_scripts wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
