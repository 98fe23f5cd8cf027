"""Pre-simulation structural validation of specs, placements, and platforms.

A bad configuration fed to the simulator rarely crashes — it produces a
*plausible-but-wrong* runtime deep into a run (a placement on a nonexistent
socket silently falls back nowhere; a non-monotone bandwidth table makes
the fluid solver converge to nonsense).  This module checks the structure
*before* any simulated event executes and reports findings as structured
:class:`~repro.analysis.diagnostics.Diagnostic` records with stable rule
codes (``SPEC2xx`` for workflow specs, ``PLAT3xx`` for platform and
calibration tables — see :mod:`repro.analysis.rules`).

:func:`validate_run` is the aggregate hook the runtime layers call; it
raises :class:`repro.errors.ValidationError` carrying every finding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.analysis.rules import get_rule
from repro.errors import CalibrationError, ValidationError
from repro.pmem.bandwidth import read_bandwidth_total, write_bandwidth_total
from repro.units import fmt_bytes


def _finding(code: str, obj: str, message: str, hint: str = "") -> Diagnostic:
    return Diagnostic(
        code=code,
        message=message,
        severity=get_rule(code).severity,
        obj=obj,
        hint=hint,
    )


# ---------------------------------------------------------------------------
# Workflow-spec structure (SPEC201, SPEC202, SPEC205).
# ---------------------------------------------------------------------------
_WHITE, _GRAY, _BLACK = 0, 1, 2


def _visit(
    node: str,
    adjacency: Dict[str, List[str]],
    color: Dict[str, int],
    stack: List[str],
) -> Optional[List[str]]:
    """Depth-first step of :func:`_find_cycle` (module level, so a run of
    the validator leaves no self-referencing closure behind)."""
    color[node] = _GRAY
    stack.append(node)
    for neighbour in adjacency[node]:
        if color[neighbour] == _GRAY:
            return stack[stack.index(neighbour):] + [neighbour]
        if color[neighbour] == _WHITE:
            cycle = _visit(neighbour, adjacency, color, stack)
            if cycle is not None:
                return cycle
    stack.pop()
    color[node] = _BLACK
    return None


def _find_cycle(edges: Sequence[tuple], nodes: Iterable[str]) -> Optional[List[str]]:
    """Return one cycle as a role list, or ``None`` if the graph is a DAG."""
    adjacency: Dict[str, List[str]] = {node: [] for node in nodes}
    for producer, consumer in edges:
        adjacency.setdefault(producer, []).append(consumer)
        adjacency.setdefault(consumer, [])
    color = {node: _WHITE for node in adjacency}
    stack: List[str] = []
    for node in sorted(adjacency):
        if color[node] == _WHITE:
            cycle = _visit(node, adjacency, color, stack)
            if cycle is not None:
                return cycle
    return None


def validate_workflow(spec) -> List[Diagnostic]:
    """Structural checks of one :class:`~repro.workflow.spec.WorkflowSpec`.

    * ``SPEC201`` — the coupling graph has a cycle (a reader would wait on
      a version whose writer transitively waits on the reader: deadlock by
      construction, which the engine would only discover at run time).
    * ``SPEC202`` — a coupling endpoint names a role the workflow does not
      define (the channel would dangle with no process on one end).
    * ``SPEC205`` — the named storage stack is not modelled.
    """
    label = f"spec {spec.name!r}"
    diagnostics: List[Diagnostic] = []
    roles: Set[str] = set(getattr(spec, "roles", ("simulation", "analytics")))
    couplings = tuple(getattr(spec, "couplings", ()))

    valid_edges = []
    for producer, consumer in couplings:
        dangling = [role for role in (producer, consumer) if role not in roles]
        for role in dangling:
            diagnostics.append(
                _finding(
                    "SPEC202",
                    label,
                    f"coupling {producer!r} -> {consumer!r} references "
                    f"undefined component role {role!r}",
                    f"declared roles are {sorted(roles)}",
                )
            )
        if not dangling:
            valid_edges.append((producer, consumer))

    cycle = _find_cycle(valid_edges, roles)
    if cycle is not None:
        diagnostics.append(
            _finding(
                "SPEC201",
                label,
                "coupling graph has a cycle: " + " -> ".join(cycle),
                "writer/reader couplings must form a DAG",
            )
        )

    from repro.storage import stack_by_name

    try:
        stack_by_name(spec.stack_name)
    except ValueError as exc:
        diagnostics.append(
            _finding("SPEC205", label, str(exc), "use 'nvstream' or 'novafs'")
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Placement on a concrete node (SPEC203, SPEC204, SPEC206, SPEC207).
# ---------------------------------------------------------------------------
def validate_placement(
    spec,
    config,
    node,
    writer_socket: int = 0,
    reader_socket: int = 1,
) -> List[Diagnostic]:
    """Check that *spec* under *config* actually fits on *node*.

    * ``SPEC203`` — writer/reader placement references a socket the node
      does not have.
    * ``SPEC206`` — both components on one socket (§II-A dedicates a
      socket per component; the channel-locality model assumes it).
    * ``SPEC204`` — a component's rank count exceeds the free cores of its
      socket.
    * ``SPEC207`` — the snapshot versions the channel must retain exceed
      the channel socket's free PMEM capacity (serial mode retains every
      version — the real capacity cost of serial scheduling).
    """
    label = f"spec {spec.name!r} under {config.label}"
    diagnostics: List[Diagnostic] = []
    n_sockets = node.n_sockets

    bad_socket = False
    for role, socket_id in (("writer", writer_socket), ("reader", reader_socket)):
        if not 0 <= socket_id < n_sockets:
            bad_socket = True
            diagnostics.append(
                _finding(
                    "SPEC203",
                    label,
                    f"{role} placed on socket {socket_id}, but the node has "
                    f"sockets 0..{n_sockets - 1}",
                    "place components on sockets that exist on the platform",
                )
            )
    if bad_socket:
        return diagnostics  # everything below needs real sockets

    if writer_socket == reader_socket:
        diagnostics.append(
            _finding(
                "SPEC206",
                label,
                f"writer and reader both placed on socket {writer_socket}",
                "dedicate one socket per component (§II-A)",
            )
        )
        return diagnostics

    for role, socket_id in (("writer", writer_socket), ("reader", reader_socket)):
        free = node.socket(socket_id).cores.available
        if spec.ranks > free:
            diagnostics.append(
                _finding(
                    "SPEC204",
                    label,
                    f"{role} needs {spec.ranks} cores on socket {socket_id}, "
                    f"only {free} free",
                    "reduce ranks or use a larger platform preset",
                )
            )

    channel_socket = writer_socket if config.writer_local else reader_socket
    retained = spec.iterations if not config.parallel else 2
    required = spec.snapshot.snapshot_bytes * spec.ranks * retained
    free_pmem = node.socket(channel_socket).pmem.free_bytes
    if required > free_pmem:
        diagnostics.append(
            _finding(
                "SPEC207",
                label,
                f"channel must retain {retained} version(s) = "
                f"{fmt_bytes(required)}, but socket {channel_socket} has "
                f"{fmt_bytes(free_pmem)} PMEM free",
                "fewer iterations, smaller snapshots, or parallel mode "
                "(which recycles a 2-version ring)",
            )
        )
    return diagnostics


# ---------------------------------------------------------------------------
# Calibration and platform tables (PLAT301, PLAT302, PLAT303, PLAT304).
# ---------------------------------------------------------------------------
#: Thread range over which the bandwidth curves were calibrated (the
#: paper's testbed has 28 cores per socket; curves must behave through it).
CALIBRATED_THREADS = 28


def validate_calibration(cal, max_threads: int = CALIBRATED_THREADS) -> List[Diagnostic]:
    """Numeric sanity of one :class:`~repro.pmem.calibration.OptaneCalibration`.

    * ``PLAT304`` — the calibration's own per-field consistency checks fail.
    * ``PLAT301`` — a bandwidth curve goes negative, or is non-monotone
      where the model requires monotonicity: reads must be non-decreasing
      over the whole calibrated thread range, writes non-decreasing up to
      the write-peak thread count (beyond it a gentle decline is physical).
    * ``PLAT302`` — an idle latency constant is not strictly positive.
    """
    label = "calibration"
    diagnostics: List[Diagnostic] = []
    try:
        cal.validate()
    except CalibrationError as exc:
        diagnostics.append(
            _finding("PLAT304", label, str(exc), "fix the named constant")
        )

    for kind, curve, monotone_until in (
        ("read", read_bandwidth_total, max_threads),
        ("write", write_bandwidth_total, int(cal.write_peak_threads)),
    ):
        previous = 0.0
        for n in range(1, max_threads + 1):
            try:
                value = curve(cal, float(n))
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                diagnostics.append(
                    _finding(
                        "PLAT301",
                        label,
                        f"{kind} bandwidth curve raises at n={n}: {exc}",
                        "check the ramp/decay constants",
                    )
                )
                break
            if value < 0:
                diagnostics.append(
                    _finding(
                        "PLAT301",
                        label,
                        f"{kind} bandwidth is negative at n={n} "
                        f"({value:.3g} B/s)",
                        "bandwidth curves must be non-negative",
                    )
                )
                break
            if n <= monotone_until and value < previous:
                diagnostics.append(
                    _finding(
                        "PLAT301",
                        label,
                        f"{kind} bandwidth decreases from {previous:.3g} to "
                        f"{value:.3g} B/s between n={n - 1} and n={n}, inside "
                        f"the calibrated ramp (n <= {monotone_until})",
                        "the concurrency ramp must be non-decreasing",
                    )
                )
                break
            previous = value

    for name in (
        "read_latency_local",
        "write_latency_local",
        "read_latency_remote",
        "write_latency_remote",
    ):
        if getattr(cal, name) <= 0:
            diagnostics.append(
                _finding(
                    "PLAT302",
                    label,
                    f"{name} must be strictly positive, got {getattr(cal, name)}",
                    "idle latencies are hardware constants > 0",
                )
            )
    return diagnostics


def validate_node(node, cal) -> List[Diagnostic]:
    """Cross-check a node's devices against the calibration geometry.

    * ``PLAT303`` — a socket's interleave set disagrees with the
      calibration's stripe geometry (chunk size or DIMM count), so the
      granularity model and the allocator would assume different devices.
    """
    diagnostics: List[Diagnostic] = []
    for socket in node.sockets:
        label = f"socket {socket.socket_id}"
        interleave = socket.pmem.interleave
        if interleave.ndimms != cal.dimms_per_socket:
            diagnostics.append(
                _finding(
                    "PLAT303",
                    label,
                    f"device interleaves across {interleave.ndimms} DIMMs, "
                    f"calibration expects {cal.dimms_per_socket}",
                    "device geometry and calibration must agree",
                )
            )
        if interleave.chunk_bytes != cal.interleave_chunk:
            diagnostics.append(
                _finding(
                    "PLAT303",
                    label,
                    f"interleave chunk is {interleave.chunk_bytes} B, "
                    f"calibration expects {cal.interleave_chunk} B",
                    "device geometry and calibration must agree",
                )
            )
    return diagnostics


def validate_platform_tables() -> List[Diagnostic]:
    """The default calibration and the paper testbed, which every
    experiment runs on (``python -m repro.analysis`` checks these)."""
    from repro.platform.builder import paper_testbed
    from repro.pmem.calibration import DEFAULT_CALIBRATION

    return validate_calibration(DEFAULT_CALIBRATION) + validate_node(
        paper_testbed(), DEFAULT_CALIBRATION
    )


# ---------------------------------------------------------------------------
# Aggregate pre-run hook.
# ---------------------------------------------------------------------------
def validate_run(
    spec,
    config,
    node,
    cal,
    writer_socket: int = 0,
    reader_socket: int = 1,
) -> List[Diagnostic]:
    """Validate everything a run depends on; raise on any error finding.

    Called by :func:`repro.workflow.runner.run_workflow` (and transitively
    by every experiment) before the first simulated event.  Raises
    :class:`repro.errors.ValidationError` carrying the full diagnostic
    list; returns the (warning-only) diagnostics otherwise.
    """
    diagnostics = (
        validate_workflow(spec)
        + validate_calibration(cal)
        + validate_node(node, cal)
    )
    # Placement checks assume a structurally sound spec and platform.
    if not diagnostics:
        diagnostics += validate_placement(
            spec, config, node, writer_socket=writer_socket, reader_socket=reader_socket
        )
    diagnostics = sort_diagnostics(diagnostics)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        raise ValidationError(diagnostics)
    return diagnostics
