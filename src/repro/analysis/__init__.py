"""Pre-run validation of workflow specs, placements and platform tables.

:mod:`repro.analysis.validate` checks the ``SPEC2xx`` (workflow specs and
placements) and ``PLAT3xx`` (platform and calibration tables) rules
before any simulated event executes.  It is wired into
:func:`repro.workflow.runner.run_workflow`, so a bad configuration is
rejected with structured diagnostics instead of producing a
plausible-but-wrong runtime.

Determinism is guarded at run time, not here: ``tests/test_determinism.py``
runs the micro campaign under several hash seeds, with shifted host
clocks, and in a sandbox that records blocking I/O in model code and
threads started outside :mod:`repro.service`.

``python -m repro.analysis`` validates the default platform tables;
``--list-rules`` prints every rule code.
"""

from repro.analysis.diagnostics import Diagnostic, Severity, render_text
from repro.analysis.rules import Rule, all_rules, get_rule
from repro.analysis.validate import (
    validate_calibration,
    validate_node,
    validate_placement,
    validate_platform_tables,
    validate_run,
    validate_workflow,
)

__all__ = [
    "Diagnostic",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "render_text",
    "validate_calibration",
    "validate_node",
    "validate_placement",
    "validate_platform_tables",
    "validate_run",
    "validate_workflow",
]
