"""Hook objects the simulator calls into when a run is observed.

The sim layer (:mod:`repro.sim.engine`, :mod:`repro.sim.flow`,
:mod:`repro.storage.channel`) holds an optional ``hooks`` attribute that is
``None`` by default; every emission site is one ``is None`` branch.  When a
run is observed, :class:`~repro.obs.capture.Observation` attaches these
implementations, which translate raw simulator events into probe
instruments:

* :class:`EngineHooks` — event-queue depth over virtual time;
* :class:`NetworkHooks` — active flows, per-resource occupancy and
  achieved bandwidth, per-resource/per-direction bytes moved, per-flow
  achieved-rate histograms;
* :class:`ChannelHooks` — versions published/consumed, payload bytes,
  version-wait counts, reader lag, retention pressure.

Counter/gauge names are part of the export schema; see DESIGN.md
"Observability" for the full catalogue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from repro.obs.probes import Counter, Gauge, ProbeRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.flow import CapacityResource, Flow, ResourceLoad


class EngineHooks:
    """Probe adapter for the discrete-event engine."""

    __slots__ = ("on_step",)

    def __init__(self, probes: ProbeRegistry) -> None:
        #: ``on_step(now, queue_depth)``, called after every executed timer
        #: with the remaining queue size: the queue-depth gauge's own
        #: setter, so the per-event path is one call.
        self.on_step = probes.gauge("engine.queue_depth").set


class NetworkHooks:
    """Probe adapter for the fluid-flow network and its resources."""

    __slots__ = (
        "_probes",
        "_active",
        "_recomputes",
        "_solver_iterations",
        "_completed",
        "_resource_gauges",
        "_last_loaded",
        "_bytes",
        "_rate_hist",
    )

    def __init__(self, probes: ProbeRegistry) -> None:
        self._probes = probes
        self._active = probes.gauge("flow.active")
        self._recomputes = probes.counter("flow.recomputes")
        self._solver_iterations = probes.counter("flow.solver_iterations")
        self._completed = probes.counter("flow.completed")
        # Per-resource instrument caches (avoid registry lookups per event).
        #: ``(resource.occupancy, resource.rate_achieved)`` per resource.
        self._resource_gauges: Dict["CapacityResource", Tuple[Gauge, Gauge]] = {}
        #: The resources loaded at the previous recompute.
        self._last_loaded: Tuple["CapacityResource", ...] = ()
        #: ``resource.bytes_moved`` counters per ``(path, kind, remote)``.
        self._bytes: Dict[tuple, Tuple[Counter, ...]] = {}
        self._rate_hist: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def on_recompute(
        self,
        now: float,
        flows: Sequence["Flow"],
        loads: Dict["CapacityResource", "ResourceLoad"],
    ) -> None:
        """Called after every rate recomputation with the converged state."""
        self._recomputes.add(now, 1)
        self._active.set(now, len(flows))
        gauges = self._resource_gauges
        # Resources that went idle since the last recompute decay to zero
        # occupancy/rate (gauges record only changes, so the ones idle
        # before that are already at zero).
        for resource in self._last_loaded:
            if resource not in loads:
                occupancy, achieved_rate = gauges[resource]
                occupancy.set(now, 0.0)
                achieved_rate.set(now, 0.0)
        self._last_loaded = tuple(loads)
        # One pass over the flows; per-resource sums stay in flow order.
        achieved = dict.fromkeys(loads, 0.0)
        for flow in flows:
            rate = flow.rate
            for resource in flow.resources:
                achieved[resource] += rate
        # Instrument creation order never reaches an export: the registry
        # lists its instruments sorted by key.
        for resource, load in loads.items():
            pair = gauges.get(resource)
            if pair is None:
                pair = gauges[resource] = (
                    self._probes.gauge("resource.occupancy", resource=resource.name),
                    self._probes.gauge("resource.rate_achieved", resource=resource.name),
                )
            pair[0].set(now, load.n_total)
            pair[1].set(now, achieved[resource])

    def on_solve(self, now: float, iterations: int) -> None:
        """Called after every rate solve with the fixed-point iteration count.

        On a converged-state memo hit the network replays the *stored*
        iteration count, so this probe (and every export derived from it)
        is identical whether a solve ran live or was served from cache —
        solver strategy counters live in host metrics instead
        (``Observation.solver_stats``), precisely to keep it that way.
        """
        if iterations > 0:
            self._solver_iterations.add(now, iterations)

    def on_flow_complete(self, now: float, flow: "Flow") -> None:
        """Called when a flow finishes, before rates are recomputed."""
        self._completed.add(now, 1)
        route = (flow.resources, flow.kind, flow.remote)
        counters = self._bytes.get(route)
        if counters is None:
            counters = self._bytes[route] = tuple(
                self._probes.counter(
                    "resource.bytes_moved",
                    resource=resource.name,
                    kind=flow.kind,
                    remote=flow.remote,
                )
                for resource in flow.resources
            )
        for counter in counters:
            counter.add(now, flow.nbytes)
        elapsed = now - flow.started_at
        if elapsed > 0:
            histogram = self._rate_hist.get(flow.kind)
            if histogram is None:
                histogram = self._probes.histogram(
                    "flow.achieved_rate", kind=flow.kind
                )
                self._rate_hist[flow.kind] = histogram
            histogram.observe(now, flow.nbytes / elapsed)


class ChannelHooks:
    """Probe adapter for the versioned NVStream channel."""

    __slots__ = (
        "_published",
        "_bytes_published",
        "_waits",
        "_lag",
        "_retained",
        "_pressure",
    )

    def __init__(self, probes: ProbeRegistry) -> None:
        self._published = probes.counter("channel.versions_published")
        self._bytes_published = probes.counter("channel.bytes_published")
        self._waits = probes.counter("channel.version_waits")
        self._lag = probes.gauge("channel.reader_lag")
        self._retained = probes.gauge("channel.retained_bytes")
        self._pressure = probes.gauge("channel.retention_pressure")

    def on_reserve(self, now: float, reserved_bytes: float, capacity_bytes: float) -> None:
        """Called when the channel reserves its version ring in PMEM."""
        self._retained.set(now, reserved_bytes)
        if capacity_bytes > 0:
            self._pressure.set(now, reserved_bytes / capacity_bytes)

    def on_publish(self, now: float, stream_id: int, version: int, nbytes: float) -> None:
        """Called on every snapshot-version publication."""
        self._published.add(now, 1)
        if nbytes > 0:
            self._bytes_published.add(now, nbytes)

    def on_wait(self, now: float, stream_id: int, version: int, published: int) -> None:
        """Called when a reader blocks on a not-yet-published version."""
        self._waits.add(now, 1)
        self._lag.set(now, version - published)
