"""Rule registry: every diagnostic code the validator can emit.

Codes are grouped by family:

* ``SPEC2xx`` — workflow-spec and placement validation.
* ``PLAT3xx`` — platform/calibration table validation.

The registry is the single source of truth for the ``--list-rules`` CLI
output and the rule-code section of the README.  Registering two rules under
one code is a programming error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.diagnostics import Severity


@dataclass(frozen=True)
class Rule:
    """Metadata for one diagnostic code."""

    code: str
    name: str
    summary: str
    severity: Severity = Severity.ERROR


_REGISTRY: Dict[str, Rule] = {}


def register(
    code: str, name: str, summary: str, severity: Severity = Severity.ERROR
) -> Rule:
    """Register a rule; returns the :class:`Rule` for the checker to keep."""
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code!r}")
    rule = Rule(code=code, name=name, summary=summary, severity=severity)
    _REGISTRY[code] = rule
    return rule


def get_rule(code: str) -> Rule:
    """Look up a registered rule by code (raises ``KeyError`` if unknown)."""
    return _REGISTRY[code]


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# SPEC2xx — workflow-spec validation (repro.analysis.validate).
# ---------------------------------------------------------------------------
SPEC201 = register(
    "SPEC201",
    "cyclic-coupling",
    "workflow coupling graph has a cycle; writer/reader couplings must "
    "form a DAG or no snapshot version can ever be published first",
)
SPEC202 = register(
    "SPEC202",
    "dangling-channel-endpoint",
    "coupling references a component role the workflow does not define",
)
SPEC203 = register(
    "SPEC203",
    "bad-socket-reference",
    "placement references a socket the platform does not have",
)
SPEC204 = register(
    "SPEC204",
    "ranks-exceed-cores",
    "component rank count exceeds the free cores of its socket",
)
SPEC205 = register(
    "SPEC205",
    "unknown-storage-stack",
    "workflow names a storage stack the library does not model",
)
SPEC206 = register(
    "SPEC206",
    "components-share-socket",
    "writer and reader are placed on the same socket (the paper's "
    "workflows dedicate one socket per component, §II-A)",
)
SPEC207 = register(
    "SPEC207",
    "channel-exceeds-pmem",
    "retained snapshot versions exceed the channel socket's PMEM capacity "
    "(serial mode retains every version)",
)

# ---------------------------------------------------------------------------
# PLAT3xx — platform/calibration validation (repro.analysis.validate).
# ---------------------------------------------------------------------------
PLAT301 = register(
    "PLAT301",
    "bandwidth-curve-invalid",
    "bandwidth curve is negative or non-monotone over the calibrated "
    "thread range",
)
PLAT302 = register(
    "PLAT302",
    "non-positive-latency",
    "device latency constant is not strictly positive",
)
PLAT303 = register(
    "PLAT303",
    "interleave-geometry-mismatch",
    "device interleave geometry (stripe/DIMM count) disagrees with the "
    "calibration constants",
)
PLAT304 = register(
    "PLAT304",
    "calibration-inconsistent",
    "calibration constants fail their own consistency checks",
)

