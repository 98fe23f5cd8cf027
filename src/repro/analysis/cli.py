"""``python -m repro.analysis`` — validate the platform tables.

Examples::

    python -m repro.analysis                # PLAT3xx over the default tables
    python -m repro.analysis --list-rules

The default calibration and the paper testbed are checked against the
``PLAT3xx`` rules (microseconds); ``SPEC2xx`` runs before every
simulated run, inside :func:`repro.workflow.runner.run_workflow`.

Exit status: 0 when no error-severity diagnostics were found, 1
otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.diagnostics import Severity, render_text, sort_diagnostics
from repro.analysis.rules import all_rules
from repro.analysis.validate import validate_platform_tables


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="Validate the simulator's platform and calibration tables.",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  [{rule.severity.value}]  {rule.name}: {rule.summary}")
        return 0

    diagnostics = sort_diagnostics(validate_platform_tables())
    print(render_text(diagnostics))
    return 1 if any(d.severity is Severity.ERROR for d in diagnostics) else 0


def entry() -> None:  # pragma: no cover - console_scripts wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
