"""Shared diagnostic model for the static-analysis passes.

Both analysis passes — the AST linter (:mod:`repro.analysis.simlint`) and
the spec/platform validator (:mod:`repro.analysis.validate`) — report
findings as :class:`Diagnostic` records: a stable rule code, a severity, an
optional ``file:line:col`` anchor, a human-readable message, and a fix hint.
The CLI renders them as text; the runtime hooks wrap error-severity
diagnostics in :class:`repro.errors.ValidationError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the CLI and abort pre-run validation;
    ``WARNING`` findings are reported but never block.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass.

    Attributes
    ----------
    code:
        Stable rule code ("SIM103", "SPEC201", "PLAT301", ...).
    message:
        What is wrong, in prose, with the offending construct named.
    severity:
        :class:`Severity` of the finding.
    path:
        Source file the finding anchors to (``None`` for structural
        findings about in-memory objects such as a ``WorkflowSpec``).
    line / col:
        1-indexed line and 0-indexed column within *path*.
    hint:
        How to fix it (shown after the message).
    obj:
        Label of the validated object ("spec 'gtc+readonly@16'",
        "calibration", ...) for structural findings.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    path: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None
    hint: str = ""
    obj: str = ""

    @property
    def location(self) -> str:
        """``file:line:col`` anchor, or the object label, or ``"-"``."""
        if self.path is not None:
            parts = [self.path]
            if self.line is not None:
                parts.append(str(self.line))
                parts.append(str(self.col if self.col is not None else 0))
            return ":".join(parts)
        return self.obj or "-"

    def render(self) -> str:
        """One-line text rendering: ``loc: CODE severity: message [hint]``."""
        text = f"{self.location}: {self.code} {self.severity.value}: {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def sort_key(self) -> tuple:
        return (self.path or "", self.line or 0, self.col or 0, self.code)


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable file/line/code ordering for deterministic reports."""
    return sorted(diagnostics, key=Diagnostic.sort_key)


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line text report with a trailing summary line."""
    lines = [d.render() for d in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


@dataclass
class DiagnosticSink:
    """Mutable collector the passes append to."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def emit(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def sorted(self) -> List[Diagnostic]:
        return sort_diagnostics(self.diagnostics)
