"""Host-side self-metrics: what a run costs *this* machine.

Everything else in :mod:`repro.obs` is clocked on virtual time and is
byte-identical across reruns; this module and :mod:`repro.obs.telemetry`
are its only wall-clock readers (the clock-shifted run of the hash-seed
oracle in ``tests/test_determinism.py`` fails if a host-clock value
reaches a stored payload).  It measures the simulator itself — wall-clock
seconds and the process's peak resident memory by default; the tracemalloc
allocation peak and cProfile hotspots only when profiling — and pairs those
with the deterministic work counters the engine and flow network already track
(events executed, rate recomputations, solver iterations), yielding one
:class:`HostMetrics` record per campaign cell.

A cell the service serves from its cache keeps the record of the run that
simulated it.  A rollup over records of more than one ``kind`` reports
``"mixed"``.  The headline derived rate is ``sim_seconds_per_wall_second`` —
how much virtual time the simulator produces per second of host time —
printed in the "Host cost" table of ``campaign report``.

Host metrics are *never* part of a deterministic payload: the campaign
store segregates them under a ``"host"`` key that every diff and
byte-identity check ignores.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.units import KiB

try:
    import resource
except ImportError:  # pragma: no cover - platforms without the module
    resource = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.capture import Observation

#: Hotspot rows kept per profiled cell.
PROFILE_TOP_DEFAULT = 10

#: ``ru_maxrss`` unit: bytes on macOS, KiB on Linux and the other Unixes.
_MAXRSS_SCALE = 1 if sys.platform == "darwin" else KiB

#: Record-shape marker for discrete-event (virtual-time) runs.
KIND_SIMULATED = "simulated"


@dataclass
class Hotspot:
    """One aggregated cProfile row (paths reduced to basenames)."""

    function: str
    calls: int
    tottime: float
    cumtime: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "function": self.function,
            "calls": self.calls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


@dataclass
class HostMetrics:
    """Host-side cost of one campaign cell (simulated or served from cache).

    ``wall_seconds`` and ``peak_rss_bytes`` come from the host clock and
    the kernel's resident-memory high-water mark; ``peak_tracemalloc_bytes``
    is the allocation peak, nonzero only for profiled cells.  The
    event/recompute/solver counters are
    deterministic simulator totals copied here because they are *cost*
    signals, not results.
    """

    kind: str
    wall_seconds: float
    simulated_seconds: float = 0.0
    events_executed: float = 0.0
    timers_scheduled: float = 0.0
    flow_recomputes: float = 0.0
    solver_iterations: float = 0.0
    flows_completed: float = 0.0
    #: Solver fast-path accounting (PR-5): equivalence classes solved,
    #: converged-state memo hits/misses, and recompute requests absorbed
    #: by coalescing.  Zero for cached cells and for the
    #: reference solver.
    solver_classes: float = 0.0
    solver_memo_hits: float = 0.0
    solver_memo_misses: float = 0.0
    recomputes_coalesced: float = 0.0
    #: Solver health: solves that hit ``DUTY_ITERATIONS`` without meeting
    #: ``RATE_TOLERANCE`` (see :attr:`repro.sim.flow.FlowNetwork.solves_at_cap`).
    solves_at_cap: float = 0.0
    peak_rss_bytes: int = 0
    peak_tracemalloc_bytes: int = 0
    runs: int = 0
    hotspots: List[Hotspot] = field(default_factory=list)

    @property
    def sim_seconds_per_wall_second(self) -> float:
        """Virtual seconds produced per host second (0 with no wall time)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.simulated_seconds / self.wall_seconds

    @property
    def events_per_wall_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_executed / self.wall_seconds

    @property
    def profiled(self) -> bool:
        """Whether an allocation peak or hotspots were recorded (``profile=True``)."""
        return bool(self.peak_tracemalloc_bytes or self.hotspots)

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of memo-eligible solves served from the converged cache."""
        attempts = self.solver_memo_hits + self.solver_memo_misses
        if attempts <= 0:
            return 0.0
        return self.solver_memo_hits / attempts

    def as_record(self) -> Dict[str, Any]:
        """The JSON shape stored under a cell's ``"host"`` key."""
        record: Dict[str, Any] = {
            "kind": self.kind,
            "wall_seconds": self.wall_seconds,
            "simulated_seconds": self.simulated_seconds,
            "sim_seconds_per_wall_second": self.sim_seconds_per_wall_second,
            "events_executed": self.events_executed,
            "events_per_wall_second": self.events_per_wall_second,
            "timers_scheduled": self.timers_scheduled,
            "flow_recomputes": self.flow_recomputes,
            "solver_iterations": self.solver_iterations,
            "flows_completed": self.flows_completed,
            "solver_classes": self.solver_classes,
            "solver_memo_hits": self.solver_memo_hits,
            "solver_memo_misses": self.solver_memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "recomputes_coalesced": self.recomputes_coalesced,
            "solves_at_cap": self.solves_at_cap,
            "peak_rss_bytes": self.peak_rss_bytes,
            "peak_tracemalloc_bytes": self.peak_tracemalloc_bytes,
            "runs": self.runs,
        }
        if self.hotspots:
            record["hotspots"] = [spot.as_dict() for spot in self.hotspots]
        return record


class HostMeter:
    """Context manager measuring the host cost of a block of work.

    By default reads only the wall clock around whatever runs inside the
    ``with`` block, plus the process's peak resident memory at exit (one
    ``getrusage`` call), so metering costs nothing measurable.  With
    ``profile=True`` it also runs cProfile and tracemalloc::

        with HostMeter(profile=True) as meter:
            observations = [observe_workflow(spec, c) for c in configs]
        metrics = simulated_host_metrics(meter, observations)

    Allocation tracing slows the simulator several-fold, which is why it
    is a profiling tool and not a default.  tracemalloc is stopped only if
    this meter started it (nesting-safe); the traced peak is reset at
    entry so each cell sees its own high-water mark.  ``peak_rss_bytes``
    is process-wide and monotone: it never drops between cells.
    """

    def __init__(self, profile: bool = False, profile_top: int = PROFILE_TOP_DEFAULT):
        self.profile = profile
        self.profile_top = profile_top
        self.wall_seconds: float = 0.0
        self.peak_rss_bytes: int = 0
        self.peak_tracemalloc_bytes: int = 0
        self._profiler: Optional[cProfile.Profile] = None
        self._started_tracemalloc = False
        self._t0: float = 0.0
        self._entered = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "HostMeter":
        if self._entered:
            raise SimulationError("HostMeter is not reentrant")
        self._entered = True
        if self.profile:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            tracemalloc.reset_peak()
            self._profiler = cProfile.Profile()
            self._profiler.enable()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_seconds = time.perf_counter() - self._t0
        if self._profiler is not None:
            self._profiler.disable()
            _, self.peak_tracemalloc_bytes = tracemalloc.get_traced_memory()
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False
        self.peak_rss_bytes = _peak_rss_bytes()
        self._entered = False

    # ------------------------------------------------------------------
    def hotspots(self, top: Optional[int] = None) -> List[Hotspot]:
        """Top-N profile rows by cumulative time (empty when not profiling)."""
        if self._profiler is None:
            return []
        stats = pstats.Stats(self._profiler, stream=io.StringIO())
        rows: List[Hotspot] = []
        for (filename, lineno, name), (
            _cc,
            ncalls,
            tottime,
            cumtime,
            _callers,
        ) in stats.stats.items():  # type: ignore[attr-defined]
            rows.append(
                Hotspot(
                    function=_function_label(filename, lineno, name),
                    calls=ncalls,
                    tottime=tottime,
                    cumtime=cumtime,
                )
            )
        rows.sort(key=lambda spot: (-spot.cumtime, spot.function))
        return rows[: top if top is not None else self.profile_top]


def _peak_rss_bytes() -> int:
    """The process's peak resident memory in bytes (0 without ``resource``)."""
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _MAXRSS_SCALE


def _function_label(filename: str, lineno: int, name: str) -> str:
    """``basename:lineno(name)`` — host-path-independent hotspot identity."""
    base = os.path.basename(filename) if filename not in ("~", "") else "<builtin>"
    return f"{base}:{lineno}({name})"


# ----------------------------------------------------------------------
# Building records from measured work.
# ----------------------------------------------------------------------
def simulated_host_metrics(
    meter: HostMeter, observations: Sequence["Observation"]
) -> HostMetrics:
    """Combine a meter's host readings with the observed runs' work counters."""
    simulated = 0.0
    events = timers = recomputes = solver = completed = 0.0
    classes = memo_hits = memo_misses = coalesced = capped = 0.0
    for observation in observations:
        if observation.result is not None:
            simulated += observation.result.makespan
        probes = observation.probes
        events += probes.counter_total("engine.events_executed")
        timers += probes.counter_total("engine.timers_scheduled")
        stats = observation.solver_stats
        # The network's own totals: the ``flow.*`` probes count the same
        # events, but only observations with per-event hooks have them.
        recomputes += stats.get("recomputes", 0)
        solver += stats.get("solver_iterations", 0)
        completed += stats.get("flows_completed", 0)
        classes += stats.get("solver_classes", 0)
        memo_hits += stats.get("solver_memo_hits", 0)
        memo_misses += stats.get("solver_memo_misses", 0)
        coalesced += stats.get("recomputes_coalesced", 0)
        capped += stats.get("solves_at_cap", 0)
    return HostMetrics(
        kind=KIND_SIMULATED,
        wall_seconds=meter.wall_seconds,
        simulated_seconds=simulated,
        events_executed=events,
        timers_scheduled=timers,
        flow_recomputes=recomputes,
        solver_iterations=solver,
        flows_completed=completed,
        solver_classes=classes,
        solver_memo_hits=memo_hits,
        solver_memo_misses=memo_misses,
        recomputes_coalesced=coalesced,
        solves_at_cap=capped,
        peak_rss_bytes=meter.peak_rss_bytes,
        peak_tracemalloc_bytes=meter.peak_tracemalloc_bytes,
        runs=len(observations),
        hotspots=meter.hotspots(),
    )


def aggregate_host_metrics(metrics: Iterable[HostMetrics]) -> HostMetrics:
    """Campaign-level rollup: sums of costs, merged hotspot table."""
    total = HostMetrics(kind=KIND_SIMULATED, wall_seconds=0.0)
    kinds = set()
    merged: Dict[str, Hotspot] = {}
    for item in metrics:
        kinds.add(item.kind)
        total.wall_seconds += item.wall_seconds
        total.simulated_seconds += item.simulated_seconds
        total.events_executed += item.events_executed
        total.timers_scheduled += item.timers_scheduled
        total.flow_recomputes += item.flow_recomputes
        total.solver_iterations += item.solver_iterations
        total.flows_completed += item.flows_completed
        total.solver_classes += item.solver_classes
        total.solver_memo_hits += item.solver_memo_hits
        total.solver_memo_misses += item.solver_memo_misses
        total.recomputes_coalesced += item.recomputes_coalesced
        total.solves_at_cap += item.solves_at_cap
        total.peak_rss_bytes = max(total.peak_rss_bytes, item.peak_rss_bytes)
        total.peak_tracemalloc_bytes = max(
            total.peak_tracemalloc_bytes, item.peak_tracemalloc_bytes
        )
        total.runs += item.runs
        for spot in item.hotspots:
            seen = merged.get(spot.function)
            if seen is None:
                merged[spot.function] = Hotspot(
                    spot.function, spot.calls, spot.tottime, spot.cumtime
                )
            else:
                seen.calls += spot.calls
                seen.tottime += spot.tottime
                seen.cumtime += spot.cumtime
    if len(kinds) == 1:
        total.kind = kinds.pop()
    elif kinds:
        total.kind = "mixed"
    total.hotspots = sorted(
        merged.values(), key=lambda spot: (-spot.cumtime, spot.function)
    )[:PROFILE_TOP_DEFAULT]
    return total


def host_metrics_from_record(record: Dict[str, Any]) -> HostMetrics:
    """Rehydrate a stored ``"host"`` record (hotspots included)."""
    return HostMetrics(
        kind=record.get("kind", KIND_SIMULATED),
        wall_seconds=record.get("wall_seconds", 0.0),
        simulated_seconds=record.get("simulated_seconds", 0.0),
        events_executed=record.get("events_executed", 0.0),
        timers_scheduled=record.get("timers_scheduled", 0.0),
        flow_recomputes=record.get("flow_recomputes", 0.0),
        solver_iterations=record.get("solver_iterations", 0.0),
        flows_completed=record.get("flows_completed", 0.0),
        solver_classes=record.get("solver_classes", 0.0),
        solver_memo_hits=record.get("solver_memo_hits", 0.0),
        solver_memo_misses=record.get("solver_memo_misses", 0.0),
        recomputes_coalesced=record.get("recomputes_coalesced", 0.0),
        solves_at_cap=record.get("solves_at_cap", 0.0),
        peak_rss_bytes=record.get("peak_rss_bytes", 0),
        peak_tracemalloc_bytes=record.get("peak_tracemalloc_bytes", 0),
        runs=record.get("runs", 0),
        hotspots=[
            Hotspot(
                function=spot["function"],
                calls=spot["calls"],
                tottime=spot["tottime"],
                cumtime=spot["cumtime"],
            )
            for spot in record.get("hotspots", [])
        ],
    )
