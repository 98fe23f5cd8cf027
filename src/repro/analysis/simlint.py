"""simlint — AST lint pass for the simulator invariants no runtime test sees.

The scientific value of this reproduction rests on the discrete-event
simulator being *deterministic*: the same spec, configuration, and
calibration must produce byte-identical event traces.  Most ways to break
that fail a runtime test at once — a wall-clock value or an unseeded RNG
in a payload, a mutable default shared across runs, a trace record that
skips the tracer's checks (DESIGN §7a.1 has the injection study).  This
pass walks the source with :mod:`ast` (stdlib only) and flags the classes
that no runtime test catches:

``SIM103``
    ``==`` / ``!=`` on float virtual timestamps (``engine.now``, ``start``,
    ``end``, ``*_seconds``, ...).  Use :func:`repro.sim.engine.times_close`.
``SIM105``
    Blocking I/O (``open``, ``time.sleep``, sockets, subprocesses) inside
    sim-process code (``repro.sim``, ``repro.workflow``, ``repro.storage``,
    ``repro.platform``, ``repro.pmem``).  Simulated processes advance by
    yielding events, never by blocking the interpreter.
``SIM106``
    Raw magic byte/bandwidth magnitude literals (powers of 1024, ``2**30``,
    ``1e9``...) where the :mod:`repro.units` constants exist.
``SIM109``
    Host-clock reads (``time.perf_counter``, ``time.time``, ...) in
    :mod:`repro.analysis`: a lint report or a pre-run validation verdict
    must not depend on when it ran.
``SIM110``
    Host-concurrency imports (``multiprocessing``, ``concurrent.futures``,
    ``threading``, ``signal``, ``_thread``) outside :mod:`repro.service`
    (the worker pool and its CLI).  The simulator is single-threaded by
    construction; a worker pool spun up inside model code would make event
    order depend on host scheduling.
``SIM111``
    ``dict()`` / ``{...}`` / ``ResourceLoad(...)`` constructed inside a
    ``for``/``while`` loop of a function marked with a
    ``# simlint: hotpath`` comment.  Hot solver loops (the flow network's
    fixed point) run millions of iterations per campaign; per-iteration
    allocation churn is exactly the cost the fast path removed, and this
    rule keeps future edits from silently reintroducing it.  Allocate
    before the loop and reset in place.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.diagnostics import Diagnostic, DiagnosticSink, sort_diagnostics
from repro.analysis.rules import get_rule
from repro.units import KB, KiB

# ---------------------------------------------------------------------------
# Zones.  Package = first path component under ``repro``; top-level modules
# (errors.py, units.py) use their stem.
# ---------------------------------------------------------------------------
#: Where a host-clock call is flagged (SIM109): the analysis tooling.
HOST_CLOCK_FREE_PACKAGES: Set[str] = {"analysis"}

#: Where host-concurrency imports are sanctioned (SIM110): the service's
#: worker pool and signal handling.
CONCURRENCY_ALLOWED_PACKAGES: Set[str] = {"service"}

#: Import roots that mean host concurrency (SIM110).
_CONCURRENCY_MODULES: Set[str] = {
    "multiprocessing",
    "concurrent",
    "threading",
    "_thread",
    "signal",
}

#: Packages whose code runs inside (or builds state for) simulated
#: processes, where blocking I/O is always a bug.
BLOCKING_IO_PACKAGES: Set[str] = {"sim", "workflow", "storage", "platform", "pmem"}

#: Module stems exempt from SIM106 (they *define* the unit constants).
UNITS_MODULES: Set[str] = {"units"}

# ---------------------------------------------------------------------------
# Name tables.
# ---------------------------------------------------------------------------
_WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: Accept both ``import datetime; datetime.datetime.now()`` and
#: ``from datetime import datetime; datetime.now()``.
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")

_BLOCKING_CALLS: Set[str] = {
    "open",
    "io.open",
    "os.open",
    "input",
    "time.sleep",
    "socket.socket",
    "socket.create_connection",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "urllib.request.urlopen",
}

#: Identifiers treated as float virtual timestamps in comparisons.
_TIME_NAMES: Set[str] = {
    "now",
    "_now",
    "t0",
    "t1",
    "start",
    "end",
    "start_time",
    "end_time",
    "makespan",
    "deadline",
    "virtual_time",
    "timestamp",
}
_TIME_SUFFIXES = ("_seconds", "_time", "_at")

_POW2_MAGNITUDES: Set[int] = {2**k for k in range(10, 41)}
_POW10_MAGNITUDES: Set[int] = {10**k for k in range(6, 16)}

#: Marker comment declaring a function allocation-sensitive (SIM111).
HOTPATH_MARKER = "simlint: hotpath"

#: Constructors that mean heap churn when called per loop iteration in a
#: hotpath function (SIM111), matched by terminal identifier so plain and
#: module-qualified spellings are both caught.
_HOTPATH_ALLOCATORS: Set[str] = {"dict", "ResourceLoad"}


def _package_of(module: str) -> str:
    """First component under ``repro`` ("sim", "obs", "errors", ...)."""
    parts = module.split(".")
    if "repro" in parts:
        index = parts.index("repro")
        if index + 1 < len(parts):
            return parts[index + 1]
    return parts[-1]


def _module_from_path(path: str) -> str:
    """Best-effort dotted module name from a file path."""
    normalized = path.replace(os.sep, "/")
    stem = normalized[:-3] if normalized.endswith(".py") else normalized
    parts = [p for p in stem.split("/") if p not in ("", ".", "src")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _Imports:
    """Alias table mapping local names to fully dotted origins."""

    def __init__(self) -> None:
        self._aliases: Dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports stay within repro; nothing to resolve
        for alias in node.names:
            self._aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Expand the leading alias of *dotted* if one is known."""
        head, _, rest = dotted.partition(".")
        origin = self._aliases.get(head, head)
        return f"{origin}.{rest}" if rest else origin


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_operand(node: ast.AST) -> bool:
    identifier = _terminal_identifier(node)
    if identifier is None:
        return False
    return identifier in _TIME_NAMES or identifier.endswith(_TIME_SUFFIXES)


def _is_magic_magnitude(value: object) -> bool:
    if isinstance(value, bool):
        return False
    # Integer powers of two >= 1024 are byte sizes in this codebase; powers
    # of ten are only treated as magnitudes when spelled as floats (1e9
    # bandwidth-style) — integer powers of ten are usually counts.
    if isinstance(value, int):
        return value in _POW2_MAGNITUDES
    if isinstance(value, float) and value.is_integer():
        return int(value) in _POW2_MAGNITUDES or int(value) in _POW10_MAGNITUDES
    return False


class _Linter(ast.NodeVisitor):
    """Single-walk visitor dispatching every simlint rule."""

    def __init__(
        self,
        path: str,
        module: str,
        sink: DiagnosticSink,
        hotpath_lines: Optional[Set[int]] = None,
    ) -> None:
        self.path = path
        self.module = module
        self.package = _package_of(module)
        self.sink = sink
        self.imports = _Imports()
        self.in_host_clock_free_zone = self.package in HOST_CLOCK_FREE_PACKAGES
        self.in_blocking_zone = self.package in BLOCKING_IO_PACKAGES
        self.check_units = module.split(".")[-1] not in UNITS_MODULES
        self.hotpath_lines = hotpath_lines or set()

    # -- helpers -----------------------------------------------------------
    def _emit(self, code: str, node: ast.AST, message: str, hint: str) -> None:
        rule = get_rule(code)
        self.sink.emit(
            Diagnostic(
                code=code,
                message=message,
                severity=rule.severity,
                path=self.path,
                line=getattr(node, "lineno", None),
                col=getattr(node, "col_offset", None),
                hint=hint,
            )
        )

    # -- imports -----------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.imports.add_import(node)
        for alias in node.names:
            self._check_concurrency_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.add_import_from(node)
        if node.module is not None and not node.level:
            self._check_concurrency_import(node, node.module)
        self.generic_visit(node)

    def _check_concurrency_import(self, node: ast.AST, module: str) -> None:
        # SIM110: host-concurrency modules outside the sanctioned packages.
        if self.package in CONCURRENCY_ALLOWED_PACKAGES:
            return
        root = module.split(".")[0]
        if root in _CONCURRENCY_MODULES:
            self._emit(
                "SIM110",
                node,
                f"host-concurrency import {module!r} outside repro.service",
                "submit parallel work to repro.service.scheduler.ServiceScheduler",
            )

    # -- SIM105 / SIM109: calls -------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        resolved = self.imports.resolve(dotted) if dotted else None
        if resolved:
            self._check_host_clock(node, resolved)
            self._check_blocking(node, resolved)
        self.generic_visit(node)

    def _check_host_clock(self, node: ast.Call, resolved: str) -> None:
        if not self.in_host_clock_free_zone:
            return
        if resolved in _WALL_CLOCK_CALLS or resolved.endswith(_WALL_CLOCK_SUFFIXES):
            self._emit(
                "SIM109",
                node,
                f"host-clock call {resolved}() in the analysis tooling",
                "report and validate from the inputs alone",
            )

    def _check_blocking(self, node: ast.Call, resolved: str) -> None:
        if not self.in_blocking_zone:
            return
        if resolved in _BLOCKING_CALLS:
            self._emit(
                "SIM105",
                node,
                f"blocking call {resolved}() inside sim-process code",
                "yield a Timeout/SimEvent instead of blocking the interpreter",
            )

    # -- SIM103: float time equality ---------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # Comparisons against integer sentinels (-1, 0 iteration
            # markers) are exact by construction; only flag pairs where a
            # time-like operand meets a float or another time-like value.
            time_like = [_is_time_operand(left), _is_time_operand(right)]
            if not any(time_like):
                continue
            other = right if time_like[0] else left
            if isinstance(other, ast.Constant) and isinstance(other.value, int):
                continue
            name = _terminal_identifier(left if time_like[0] else right)
            self._emit(
                "SIM103",
                node,
                f"exact equality on float virtual timestamp {name!r}",
                "use repro.sim.engine.times_close (epsilon comparison)",
            )
        self.generic_visit(node)

    # -- SIM111: allocation churn in marked hot loops ----------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_hotpath(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_hotpath(self, node) -> None:
        """Flag per-iteration dict/ResourceLoad allocation in marked functions.

        A function is marked by a ``# simlint: hotpath`` comment anywhere in
        its body (matched against source lines, since comments don't survive
        into the AST).  Only statements inside ``for``/``while`` loops are
        flagged — comprehensions and one-shot setup allocations outside
        loops are fine.
        """
        if not self.hotpath_lines:
            return
        end = getattr(node, "end_lineno", None) or node.lineno
        if not any(node.lineno <= line <= end for line in self.hotpath_lines):
            return
        flagged: Set[int] = set()
        for loop in ast.walk(node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for stmt in list(loop.body) + list(loop.orelse):
                for sub in ast.walk(stmt):
                    if id(sub) in flagged:
                        continue
                    label = None
                    if isinstance(sub, (ast.Dict, ast.DictComp)):
                        label = "dict literal"
                    elif isinstance(sub, ast.Call):
                        terminal = _terminal_identifier(sub.func)
                        if terminal in _HOTPATH_ALLOCATORS:
                            label = f"{terminal}() call"
                    if label is not None:
                        flagged.add(id(sub))
                        self._emit(
                            "SIM111",
                            sub,
                            f"{label} allocated per loop iteration in hotpath "
                            f"function {node.name}()",
                            "hoist the allocation out of the loop and reset "
                            "fields in place",
                        )

    # -- SIM106: magic magnitude literals ----------------------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        if self.check_units and _is_magic_magnitude(node.value):
            self._emit(
                "SIM106",
                node,
                f"magic size/bandwidth literal {node.value!r}",
                "use repro.units (KiB/MiB/GiB, KB/MB/GB, GIGA)",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            self.check_units
            and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.right, ast.Constant)
            and isinstance(node.left.value, int)
            and isinstance(node.right.value, int)
        ):
            base, exponent = node.left.value, node.right.value
            if (
                (base == 2 and exponent >= 10)
                or (base == 10 and exponent >= 6)
                or (base in (KiB, KB) and exponent >= 1)
            ):
                self._emit(
                    "SIM106",
                    node,
                    f"magic size expression {base}**{exponent}",
                    "use repro.units (KiB/MiB/GiB, KB/MB/GB, GIGA)",
                )
            return  # operands of a flagged power are part of one finding
        self.generic_visit(node)


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    sink: Optional[DiagnosticSink] = None,
) -> List[Diagnostic]:
    """Lint one module's source text; returns its diagnostics (sorted)."""
    sink = sink if sink is not None else DiagnosticSink()
    before = len(sink.diagnostics)
    module = module or _module_from_path(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        sink.emit(
            Diagnostic(
                code="SIM100",
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno,
                col=exc.offset,
                hint="file must parse before it can be linted",
            )
        )
        return sink.diagnostics[before:]
    hotpath_lines = {
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if HOTPATH_MARKER in line.partition("#")[2]
    }
    _Linter(path, module, sink, hotpath_lines=hotpath_lines).visit(tree)
    sink.diagnostics[before:] = sort_diagnostics(sink.diagnostics[before:])
    return sink.diagnostics[before:]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                    and not d.endswith(".egg-info")
                )
                found.extend(
                    os.path.join(root, f) for f in sorted(files) if f.endswith(".py")
                )
        else:
            found.append(path)
    return found


def lint_paths(
    paths: Iterable[str], sink: Optional[DiagnosticSink] = None
) -> List[Diagnostic]:
    """Lint every ``*.py`` under *paths*; returns all diagnostics (sorted)."""
    sink = sink if sink is not None else DiagnosticSink()
    for filename in iter_python_files(list(paths)):
        with open(filename, "r", encoding="utf-8") as handle:
            lint_source(handle.read(), path=filename, sink=sink)
    sink.diagnostics[:] = sort_diagnostics(sink.diagnostics)
    return sink.diagnostics
