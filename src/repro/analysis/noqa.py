"""``# noqa`` suppression parsing for the lint pass.

The PR-1 parser lived inside :mod:`repro.analysis.simlint` and had two
real bugs this module fixes:

* **multi-comment lines** — ``x = f()  # type: ignore  # noqa`` split the
  comment at the *first* colon, so the bare ``noqa`` was parsed as the
  code list ``{"IGNORE", "#", "NOQA"}`` instead of suppress-everything;
* **multi-rule lists with prose** — ``# noqa: SIM104,SIM111 shared ring``
  treated every trailing word as a rule code.

The grammar here matches the conventional one: ``# noqa`` (case-
insensitive) suppresses every rule on the line; ``# noqa: CODE1,CODE2``
(comma- or space-separated, optionally followed by prose) suppresses
exactly those codes.  Several ``noqa`` comments on one line union their
code sets.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Set

from repro.analysis.diagnostics import Diagnostic

#: ``# noqa`` or ``# noqa: SIM104, SIM111 free-form reason``.
_NOQA_RE = re.compile(
    r"#\s*noqa\b(?P<sep>\s*:\s*(?P<codes>[A-Za-z]+[0-9]+"
    r"(?:\s*[,\s]\s*[A-Za-z]+[0-9]+)*))?",
    re.IGNORECASE,
)

_CODE_RE = re.compile(r"[A-Za-z]+[0-9]+")

#: Sentinel meaning "every code is suppressed on this line".
ALL_CODES = "*"


def noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppressed codes (``{"*"}`` for a bare noqa)."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        for match in _NOQA_RE.finditer(line):
            codes = match.group("codes")
            if codes:
                names = {c.upper() for c in _CODE_RE.findall(codes)}
            else:
                names = {ALL_CODES}
            suppressed.setdefault(lineno, set()).update(names)
    return suppressed


def is_suppressed(
    diagnostic: Diagnostic, suppressed: Dict[int, Set[str]]
) -> bool:
    """Whether *diagnostic* is silenced by a noqa comment on its line."""
    if diagnostic.line is None:
        return False
    codes = suppressed.get(diagnostic.line)
    if not codes:
        return False
    return ALL_CODES in codes or diagnostic.code in codes


def filter_noqa(
    diagnostics: Iterable[Diagnostic], source: str
) -> List[Diagnostic]:
    """Diagnostics from one file with its noqa suppressions applied."""
    suppressed = noqa_lines(source)
    return [d for d in diagnostics if not is_suppressed(d, suppressed)]
