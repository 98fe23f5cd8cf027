"""Observed runs: the object graph tying probes, trace, manifest, result.

An :class:`Observation` is created per run — either explicitly::

    from repro.obs import observe_workflow
    obs = observe_workflow(spec, S_LOCW)
    print(obs.result.makespan, obs.probes.counter_total("channel.versions_published"))

— or implicitly for *every* ``run_workflow`` call inside a capture
context, which is how the experiments CLI records whole experiment runs
without threading a parameter through every call site::

    from repro.obs import capture_runs
    with capture_runs() as session:
        run_experiment(...)
    export(session.observations)

The capture stack is intentionally simple (a module-level LIFO): the
simulator is single-threaded per run, and nested contexts compose by
innermost-wins.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.obs.hooks import ChannelHooks, EngineHooks, NetworkHooks
from repro.obs.manifest import RunManifest
from repro.obs.probes import ProbeRegistry
from repro.obs.spans import Span, build_spans

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.results import RunResult
    from repro.sim.engine import Engine
    from repro.sim.trace import Tracer


class Observation:
    """All observability state of one observed workflow run.

    *per_event* (default on) attaches the engine and network hooks, which
    record a sample per event: queue depth, active flows, per-resource
    occupancy and achieved bandwidth, bytes moved and achieved-rate
    histograms.  A stored campaign cell reads none of those series, only
    the trace, the channel and payload counters and the network totals
    in :attr:`solver_stats`, so it observes with ``per_event=False``.
    """

    def __init__(self, per_event: bool = True) -> None:
        self.per_event = per_event
        self.probes = ProbeRegistry()
        self.manifest: Optional[RunManifest] = None
        self.tracer: Optional["Tracer"] = None
        self.result: Optional["RunResult"] = None
        self._spans: Optional[List[Span]] = None
        #: Flow-solver counters latched from the network at finalize: the
        #: strategy counters (classes, memo hits/misses, coalesced
        #: recomputes, capped solves) and the work totals (recomputes,
        #: solver iterations, completed flows).  Host-side accounting only
        #: — deliberately NOT probes, so trace and metrics exports stay
        #: identical across solver modes and with *per_event* off.
        self.solver_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Hook factories used by the workflow runner while wiring a run.
    # ------------------------------------------------------------------
    def engine_hooks(self) -> Optional[EngineHooks]:
        return EngineHooks(self.probes) if self.per_event else None

    def network_hooks(self) -> Optional[NetworkHooks]:
        return NetworkHooks(self.probes) if self.per_event else None

    def channel_hooks(self) -> ChannelHooks:
        return ChannelHooks(self.probes)

    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        """Stable identifier: ``workflow|config``."""
        if self.manifest is None:
            return "<unbound>"
        return f"{self.manifest.workflow}|{self.manifest.config}"

    @property
    def finalized(self) -> bool:
        return self.result is not None

    def finalize(
        self,
        engine: "Engine",
        result: "RunResult",
        network: Optional[object] = None,
    ) -> None:
        """Latch end-of-run state: engine totals and the run result.

        *network*, when given, contributes the flow-solver strategy
        counters to :attr:`solver_stats` (plain attributes, not probes —
        they describe how the solve was computed, not what was simulated).
        """
        if self.finalized:
            raise SimulationError(f"observation {self.run_id} finalized twice")
        now = engine.now
        self.probes.counter("engine.events_executed").add(now, engine.events_executed)
        self.probes.counter("engine.timers_scheduled").add(now, engine.timers_scheduled)
        self.probes.counter("engine.timer_cancellations").add(
            now, engine.timers_cancelled_skipped
        )
        self.probes.gauge("engine.peak_queue_depth").set(
            now, engine.peak_queue_depth
        )
        if network is not None:
            self.solver_stats = {
                "solver_classes": network.solver_classes,
                "solver_memo_hits": network.memo_hits,
                "solver_memo_misses": network.memo_misses,
                "recomputes_coalesced": network.recomputes_coalesced,
                "solves_at_cap": network.solves_at_cap,
                "recomputes": network.recompute_count,
                "solves": network.solves,
                "solver_iterations": network.solver_iterations,
                "flows_completed": network.flows_completed,
            }
        self.result = result

    def spans(self) -> List[Span]:
        """The run's span tree (built lazily from the tracer, then cached)."""
        if self._spans is None:
            if self.tracer is None or self.result is None:
                raise SimulationError(
                    "observation has no finalized trace to build spans from"
                )
            self._spans = build_spans(
                self.tracer,
                run_name=self.run_id,
                makespan=self.result.makespan,
            )
        return self._spans


class CaptureSession:
    """Collects an :class:`Observation` per run executed inside a context."""

    def __init__(self) -> None:
        self.observations: List[Observation] = []

    def begin_run(self) -> Observation:
        """Called by ``run_workflow`` when it starts a run under capture."""
        observation = Observation()
        self.observations.append(observation)
        return observation

    @property
    def finalized(self) -> List[Observation]:
        """Observations whose runs completed (skips aborted runs)."""
        return [obs for obs in self.observations if obs.finalized]


_SESSIONS: List[CaptureSession] = []


def active_session() -> Optional[CaptureSession]:
    """The innermost active capture session, if any."""
    return _SESSIONS[-1] if _SESSIONS else None


@contextmanager
def capture_runs() -> Iterator[CaptureSession]:
    """Observe every ``run_workflow`` call in the dynamic extent."""
    session = CaptureSession()
    _SESSIONS.append(session)
    try:
        yield session
    finally:
        _SESSIONS.remove(session)


def observe_workflow(spec, config, per_event: bool = True, **run_kwargs) -> Observation:
    """Run *spec* under *config* observed and return the observation.

    *per_event* is :class:`Observation`'s switch (full observability by
    default).  Accepts the same keyword arguments as
    :func:`repro.workflow.runner.run_workflow` (``cal``, ``compute_jitter``,
    sockets, ...).
    """
    from repro.workflow.runner import run_workflow

    observation = Observation(per_event=per_event)
    run_workflow(spec, config, observation=observation, **run_kwargs)
    return observation
