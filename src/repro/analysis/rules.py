"""Rule registry: every diagnostic code the analysis passes can emit.

Codes are grouped by family:

* ``SIM1xx`` — simulator lint rules (AST pass over source).
* ``SPEC2xx`` — workflow-spec structural validation (pre-run pass).
* ``PLAT3xx`` — platform/calibration table validation (pre-run pass).

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
# SIM1xx — simulator lint (repro.analysis.simlint).
# ---------------------------------------------------------------------------
SIM100 = register(
    "SIM100",
    "syntax-error",
    "file does not parse; nothing else can be checked",
)
SIM103 = register(
    "SIM103",
    "float-time-equality",
    "== / != on float virtual timestamps; exact comparison breaks once "
    "flow completions introduce rounding",
)
SIM105 = register(
    "SIM105",
    "blocking-io-in-sim",
    "blocking I/O (open / time.sleep / sockets / subprocess) inside "
    "sim-process code; simulated processes must only yield events",
)
SIM106 = register(
    "SIM106",
    "magic-size-literal",
    "raw byte/bandwidth magnitude literal; use the repro.units constants "
    "(KiB/MiB/GiB, KB/MB/GB, GIGA)",
)
SIM109 = register(
    "SIM109",
    "stray-host-clock",
    "host-clock call (time.perf_counter / time.time / ...) in repro.analysis; "
    "a lint report or a pre-run validation verdict must not depend on when "
    "it ran",
)
SIM110 = register(
    "SIM110",
    "host-concurrency-import",
    "multiprocessing / concurrent.futures / threading / signal import "
    "outside repro.service; host concurrency anywhere else lets "
    "scheduling nondeterminism leak into simulator code",
)
SIM111 = register(
    "SIM111",
    "hotpath-allocation",
    "dict / ResourceLoad constructed inside a loop of a function marked "
    "'# simlint: hotpath'; per-iteration allocation churn is exactly what "
    "the solver fast path exists to avoid — reset objects in place",
)

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

