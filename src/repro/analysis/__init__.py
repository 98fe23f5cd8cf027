"""Static analysis for the reproduction: determinism lint + spec validation.

Two passes keep the simulator trustworthy:

* :mod:`repro.analysis.simlint` — an AST linter (``SIM1xx`` rules) for
  the simulator invariants no runtime test catches: no float-time
  equality, no blocking I/O in sim-process code, no magic size literals,
  no host clock in the analysis tooling, no host concurrency outside the
  service, no allocation in marked hot loops.  Wall clocks, unseeded
  randomness and shared state that reach a result are caught at runtime
  (``tests/test_determinism.py``).
* :mod:`repro.analysis.validate` — a pre-simulation structural validator
  (``SPEC2xx`` / ``PLAT3xx`` rules) for workflow specs, placements, and
  platform/calibration tables, wired into
  :func:`repro.workflow.runner.run_workflow` so a bad configuration is
  rejected with structured diagnostics before any simulated event executes.

Run both from the command line with ``python -m repro.analysis src/``.
"""

from repro.analysis.diagnostics import Diagnostic, DiagnosticSink, Severity, render_text
from repro.analysis.rules import Rule, all_rules, get_rule
from repro.analysis.simlint import lint_paths, lint_source
from repro.analysis.validate import (
    validate_calibration,
    validate_node,
    validate_placement,
    validate_run,
    validate_workflow,
)

__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "render_text",
    "validate_calibration",
    "validate_node",
    "validate_placement",
    "validate_run",
    "validate_workflow",
]
