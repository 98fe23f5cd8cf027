"""Diagnostic model of the pre-run validator.

:mod:`repro.analysis.validate` reports findings as :class:`Diagnostic`
records: a stable rule code, a severity, the label of the validated
object, a human-readable message, and a fix hint.  The CLI renders them
as text; the runtime hooks wrap error-severity diagnostics in
:class:`repro.errors.ValidationError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Sequence


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
    """One validator finding.

    Attributes
    ----------
    code:
        Stable rule code ("SPEC201", "PLAT301", ...).
    message:
        What is wrong, in prose, with the offending construct named.
    severity:
        :class:`Severity` of the finding.
    hint:
        How to fix it (shown after the message).
    obj:
        Label of the validated object ("spec 'gtc+readonly@16'",
        "calibration", ...).
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    hint: str = ""
    obj: str = ""

    @property
    def location(self) -> str:
        """The object label, or ``"-"``."""
        return self.obj or "-"

    def render(self) -> str:
        """One-line text rendering: ``loc: CODE severity: message [hint]``."""
        text = f"{self.location}: {self.code} {self.severity.value}: {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable rule-code ordering for deterministic reports."""
    return sorted(diagnostics, key=attrgetter("code"))


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line text report with a trailing summary line."""
    lines = [d.render() for d in diagnostics]
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = len(diagnostics) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)
