"""Execute a workflow on the simulated platform under one configuration.

This is where the scheduling decisions become mechanism:

* **Placement** decides which socket's PMEM hosts the streaming channel;
  writer ranks always run on socket 0 and reader ranks on socket 1 (§II-A:
  components are placed on distinct sockets), so one component's transfers
  are local and the other's traverse the UPI link.
* **Execution mode** decides whether reader ranks start at time zero
  (parallel — their transfers overlap the writer's in the flow network) or
  only after every writer rank has finished (serial).

Each rank is a simulated process alternating compute phases (plain delays)
and I/O phases (fluid flows through the device resources).  The versioned
channel enforces the data dependency: version *v* cannot be read before it
is published.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.errors import ConfigurationError
from repro.metrics.results import PhaseBreakdown, RunResult
from repro.platform.builder import paper_testbed
from repro.platform.topology import Node
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.sim.engine import Engine
from repro.sim.events import AllOf, SimEvent, Timeout
from repro.sim.flow import Flow, FlowNetwork
from repro.sim.resources import Barrier
from repro.sim.trace import Tracer
from repro.storage import StorageStack, stack_by_name
from repro.storage.channel import StreamChannel
from repro.workflow.spec import WorkflowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.configs import SchedulerConfig
    from repro.obs.capture import Observation


@dataclass
class _ComponentStats:
    """Mutable per-component accumulators filled in by rank processes."""

    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    compute: float = 0.0
    io: float = 0.0
    wait: float = 0.0
    payload_bytes: float = 0.0

    def breakdown(self, ranks: int) -> PhaseBreakdown:
        return PhaseBreakdown(
            compute=self.compute / ranks,
            io=self.io / ranks,
            wait=self.wait / ranks,
        )

    def span(self) -> tuple:
        if not self.starts:
            return (0.0, 0.0)
        return (min(self.starts), max(self.ends))


#: Default deterministic per-rank compute-time spread (±3 %): real MPI
#: ranks never iterate in perfect lockstep, and the resulting phase drift
#: is what exposes parallel-mode I/O collisions for bursty workloads.
DEFAULT_COMPUTE_JITTER = 0.01


def _rank_jitter_factor(rank: int, ranks: int, jitter: float) -> float:
    """Deterministic, mean-preserving per-rank compute multiplier."""
    if ranks <= 1 or jitter <= 0:
        return 1.0
    return 1.0 + jitter * (2.0 * rank / (ranks - 1) - 1.0)


class _WorkflowExecution:
    """One workflow run: wiring of engine, network, node, channel, ranks."""

    def __init__(
        self,
        spec: WorkflowSpec,
        config: SchedulerConfig,
        cal: OptaneCalibration,
        node: Node,
        stack: StorageStack,
        trace: bool,
        writer_socket: int = 0,
        reader_socket: int = 1,
        compute_jitter: float = DEFAULT_COMPUTE_JITTER,
        observation: Optional["Observation"] = None,
    ) -> None:
        if writer_socket == reader_socket:
            raise ConfigurationError(
                "writer and reader must be on distinct sockets (§II-A)"
            )
        self.spec = spec
        self.config = config
        self.cal = cal
        self.node = node
        self.stack = stack
        self.engine = Engine()
        self.network = FlowNetwork(self.engine)
        self.observation = observation
        self.tracer = Tracer(enabled=trace or observation is not None)
        self.writer_socket = writer_socket
        self.reader_socket = reader_socket
        self.compute_jitter = compute_jitter
        self.channel_socket = writer_socket if config.writer_local else reader_socket
        self.writer_stats = _ComponentStats()
        self.reader_stats = _ComponentStats()
        #: ``Flow`` keyword arguments per ``(kind, cpu_socket)``; see
        #: :meth:`_flow_template`.
        self._flow_templates: Dict[tuple, Dict[str, Any]] = {}
        # MPI simulations synchronize every iteration through collectives
        # (ghost exchange / reductions), so checkpoint bursts stay aligned
        # across ranks; the barrier models that lockstep.
        self.writer_barrier = Barrier(self.engine, spec.ranks, name="sim-collective")

        # Pin ranks to cores (raises PlacementError if oversubscribed).
        node.socket(writer_socket).cores.allocate(spec.ranks, owner="writer")
        node.socket(reader_socket).cores.allocate(spec.ranks, owner="reader")

        # Serial execution must retain every snapshot version in PMEM (no
        # reader consumes anything until all writers finish), which is the
        # real capacity cost of serial scheduling; parallel mode recycles a
        # small ring.
        # Observability: attach probe adapters before any event executes so
        # the instruments see the whole run.  All handles stay ``None`` on
        # the unobserved path (a single branch per emission site).
        self._obs_write_bytes = self._obs_read_bytes = None
        self._obs_consumed = None
        channel_hooks = None
        if observation is not None:
            observation.tracer = self.tracer
            self.engine.hooks = observation.engine_hooks()
            self.network.hooks = observation.network_hooks()
            channel_hooks = observation.channel_hooks()
            probes = observation.probes
            self._obs_write_bytes = probes.counter(
                "pmem.payload_bytes", socket=self.channel_socket, direction="write"
            )
            self._obs_read_bytes = probes.counter(
                "pmem.payload_bytes", socket=self.channel_socket, direction="read"
            )
            self._obs_consumed = probes.counter("channel.versions_consumed")

        self.channel = StreamChannel(
            engine=self.engine,
            node=node,
            pmem_socket=self.channel_socket,
            stack=stack,
            n_streams=spec.ranks,
            snapshot=spec.snapshot,
            retained_versions=spec.retained_versions(config.parallel),
            hooks=channel_hooks,
        )

    # ------------------------------------------------------------------
    def _make_flow(self, kind: str, cpu_socket: int, label: str) -> Flow:
        template = self._flow_templates.get((kind, cpu_socket))
        if template is None:
            template = self._flow_templates[kind, cpu_socket] = self._flow_template(
                kind, cpu_socket
            )
        return Flow(label=label, **template)

    def _flow_template(self, kind: str, cpu_socket: int) -> Dict[str, Any]:
        """Every ``Flow`` field but the label, for *kind* flows issued from
        *cpu_socket*: within one run they depend on nothing else (the stack
        helpers are pure and the calibration is frozen)."""
        snapshot = self.spec.snapshot
        op_bytes = float(snapshot.object_bytes)
        path, remote = self.node.flow_path(cpu_socket, self.channel_socket)
        self_cap = self.stack.self_cap(self.cal, kind, op_bytes, remote)
        amplification = self.stack.amplification(kind, op_bytes, remote)
        # A software-bound flow's issue rate is capped regardless of device
        # queueing; this bounds its congestion contribution (see flow.py).
        single_thread = (
            self.cal.single_thread_write()
            if kind == "write"
            else self.cal.single_thread_read()
        )
        issue_weight = self_cap / (self_cap + single_thread)
        return dict(
            nbytes=snapshot.snapshot_bytes * amplification,
            kind=kind,
            remote=remote,
            resources=path,
            self_cap=self_cap,
            # The device sees the stack's access granularity (coalesced for
            # log-structured streaming), not the logical object size.
            op_bytes=self.stack.device_access_bytes(kind, op_bytes),
            issue_weight=issue_weight,
        )

    # ------------------------------------------------------------------
    def writer_process(self, rank: int) -> Generator:
        spec, engine = self.spec, self.engine
        component = spec.writer
        stats = self.writer_stats
        stats.starts.append(engine.now)
        compute_seconds = component.compute_seconds * _rank_jitter_factor(
            rank, spec.ranks, self.compute_jitter
        )
        overhead = self.stack.snapshot_overhead(
            "write", spec.snapshot.objects_per_snapshot
        )
        for iteration in range(spec.iterations):
            if compute_seconds > 0:
                t0 = engine.now
                yield Timeout(compute_seconds)
                stats.compute += engine.now - t0
                self.tracer.record(
                    "writer", rank, "compute", t0, engine.now, iteration
                )
                # Per-iteration collective: ranks re-align before I/O.
                t0 = engine.now
                yield self.writer_barrier.arrive()
                if engine.now > t0:
                    stats.wait += engine.now - t0
                    self.tracer.record(
                        "writer", rank, "barrier", t0, engine.now, iteration
                    )
            t0 = engine.now
            flow = self._make_flow(
                "write", self.writer_socket, f"w{rank}.v{iteration}"
            )
            # The per-snapshot software overhead runs before the flow
            # starts; the network times it, so same-instant ranks share
            # one start timer.
            yield self.network.transfer(flow, delay=overhead)
            stats.io += engine.now - t0
            stats.payload_bytes += spec.snapshot.snapshot_bytes
            if self._obs_write_bytes is not None:
                self._obs_write_bytes.add(engine.now, spec.snapshot.snapshot_bytes)
            self.channel.publish(rank, iteration, nbytes=spec.snapshot.snapshot_bytes)
            self.tracer.record(
                "writer",
                rank,
                "write",
                t0,
                engine.now,
                iteration,
                bytes=spec.snapshot.snapshot_bytes,
            )
        stats.ends.append(engine.now)

    def reader_process(self, rank: int, start_gate: Optional[SimEvent]) -> Generator:
        spec, engine = self.spec, self.engine
        component = spec.reader
        stats = self.reader_stats
        if start_gate is not None:
            yield start_gate
        stats.starts.append(engine.now)
        compute_seconds = component.compute_seconds * _rank_jitter_factor(
            rank, spec.ranks, self.compute_jitter
        )
        overhead = self.stack.snapshot_overhead(
            "read", spec.snapshot.objects_per_snapshot
        )
        device = self.node.socket(self.channel_socket).pmem.resource
        poller_remote = self.reader_socket != self.channel_socket
        for iteration in range(spec.iterations):
            t0 = engine.now
            version_event = self.channel.wait_version(rank, iteration)
            if not version_event.triggered:
                # Blocked: busy-poll the channel's version metadata in
                # PMEM, which interferes with concurrent writes (§VI).
                # Targeted poke: only the device's share-state token moved,
                # so components not affected by it (e.g. read-only phases)
                # skip their solve entirely.
                device.add_poller(poller_remote)
                self.network.poke(device)
                yield version_event
                device.remove_poller(poller_remote)
                self.network.poke(device)
            if engine.now > t0:
                stats.wait += engine.now - t0
                self.tracer.record("reader", rank, "wait", t0, engine.now, iteration)
            t0 = engine.now
            flow = self._make_flow("read", self.reader_socket, f"r{rank}.v{iteration}")
            yield self.network.transfer(flow, delay=overhead)
            stats.io += engine.now - t0
            stats.payload_bytes += spec.snapshot.snapshot_bytes
            if self._obs_read_bytes is not None:
                self._obs_read_bytes.add(engine.now, spec.snapshot.snapshot_bytes)
                self._obs_consumed.add(engine.now, 1)
            self.tracer.record(
                "reader",
                rank,
                "read",
                t0,
                engine.now,
                iteration,
                bytes=spec.snapshot.snapshot_bytes,
            )
            if compute_seconds > 0:
                t0 = engine.now
                yield Timeout(compute_seconds)
                stats.compute += engine.now - t0
                self.tracer.record(
                    "reader", rank, "compute", t0, engine.now, iteration
                )
        stats.ends.append(engine.now)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        spec = self.spec
        writers = [
            self.engine.spawn(self.writer_process(rank), name=f"writer-{rank}")
            for rank in range(spec.ranks)
        ]
        if self.config.parallel:
            start_gate: Optional[SimEvent] = None
        else:
            start_gate = AllOf(
                [w.completed for w in writers], name="writers-complete"
            )
        for rank in range(spec.ranks):
            self.engine.spawn(
                self.reader_process(rank, start_gate), name=f"reader-{rank}"
            )
        makespan = self.engine.run()
        self.channel.close()
        self.network.close()
        result = RunResult(
            workflow_name=spec.name,
            config_label=self.config.label,
            makespan=makespan,
            writer_span=self.writer_stats.span(),
            reader_span=self.reader_stats.span(),
            writer_phases=self.writer_stats.breakdown(spec.ranks),
            reader_phases=self.reader_stats.breakdown(spec.ranks),
            bytes_written=self.writer_stats.payload_bytes,
            bytes_read=self.reader_stats.payload_bytes,
            tracer=self.tracer if self.tracer.enabled else None,
        )
        if self.observation is not None:
            self.observation.finalize(self.engine, result, network=self.network)
        return result


def run_workflow(
    spec: WorkflowSpec,
    config: SchedulerConfig,
    cal: OptaneCalibration = DEFAULT_CALIBRATION,
    node_factory: Callable[..., Node] = None,
    trace: bool = False,
    compute_jitter: float = DEFAULT_COMPUTE_JITTER,
    writer_socket: int = 0,
    reader_socket: int = 1,
    validate: bool = True,
    observation: Optional["Observation"] = None,
) -> RunResult:
    """Simulate *spec* under *config* and return the run result.

    A fresh platform is built per run (runs never share device state).

    Parameters
    ----------
    spec:
        The workflow to execute.
    config:
        One of the four Table I configurations.
    cal:
        Optane calibration (defaults to the first-generation constants).
    node_factory:
        Callable building the platform; defaults to the paper's dual-socket
        testbed with the given calibration.
    trace:
        Collect a full phase timeline in ``result.tracer``.
    compute_jitter:
        Deterministic per-rank compute-time spread (0 disables it).
    writer_socket / reader_socket:
        Sockets hosting the two components (defaults match §II-A).
    validate:
        Run the :mod:`repro.analysis.validate` structural checks first; a
        cyclic coupling graph, an out-of-range socket, an oversubscribed
        core pool, or an inconsistent calibration table raises
        :class:`repro.errors.ValidationError` with structured diagnostics
        before any simulated event executes.
    observation:
        Optional :class:`repro.obs.capture.Observation` to record the run
        into (forces tracing on and attaches the probe hooks).  When
        omitted and a :func:`repro.obs.capture.capture_runs` context is
        active, an observation is created automatically and collected by
        the enclosing session; otherwise the run is unobserved and the
        instrumentation is a handful of ``is None`` branches.
    """
    if node_factory is None:
        node = paper_testbed(cal=cal)
    else:
        node = node_factory(cal=cal)
    if validate:
        from repro.analysis.validate import validate_run

        validate_run(
            spec,
            config,
            node,
            cal,
            writer_socket=writer_socket,
            reader_socket=reader_socket,
        )
    stack = stack_by_name(spec.stack_name)
    if observation is None:
        # Imported here, not at module top, to keep the workflow layer free
        # of a hard obs dependency (obs imports metrics, which workflow
        # also imports); after the first call this is a dict lookup.
        from repro.obs.capture import active_session

        session = active_session()
        if session is not None:
            observation = session.begin_run()
    if observation is not None:
        from repro.obs.manifest import build_manifest

        observation.manifest = build_manifest(
            spec,
            config,
            cal,
            writer_socket=writer_socket,
            reader_socket=reader_socket,
            compute_jitter=compute_jitter,
        )
    execution = _WorkflowExecution(
        spec=spec,
        config=config,
        cal=cal,
        node=node,
        stack=stack,
        trace=trace,
        writer_socket=writer_socket,
        reader_socket=reader_socket,
        compute_jitter=compute_jitter,
        observation=observation,
    )
    return execution.run()


def probe_component(
    spec: WorkflowSpec,
    role: str,
    cal: OptaneCalibration = DEFAULT_CALIBRATION,
    node_factory: Callable[..., Node] = None,
) -> RunResult:
    """Standalone run of one component with node-local PMEM, no contention.

    This is the measurement the paper's I/O index is defined on (§IV-A):
    the component executes as in serial mode, alone on the machine, with
    the channel in its own socket's PMEM.  For the analytics component all
    snapshot versions are pre-published so reads never block.
    """
    if role not in ("simulation", "analytics"):
        raise ConfigurationError(
            f"role must be 'simulation' or 'analytics', got {role!r}"
        )
    if node_factory is None:
        node = paper_testbed(cal=cal)
    else:
        node = node_factory(cal=cal)
    stack = stack_by_name(spec.stack_name)
    # Channel local to the probed component; the other side is absent.
    from repro.core.configs import S_LOCR, S_LOCW

    config = S_LOCW if role == "simulation" else S_LOCR
    execution = _WorkflowExecution(
        spec=spec, config=config, cal=cal, node=node, stack=stack, trace=False
    )
    if role == "simulation":
        for rank in range(spec.ranks):
            execution.engine.spawn(
                execution.writer_process(rank), name=f"probe-writer-{rank}"
            )
    else:
        for rank in range(spec.ranks):
            for version in range(spec.iterations):
                execution.channel.publish(rank, version)
            execution.engine.spawn(
                execution.reader_process(rank, None), name=f"probe-reader-{rank}"
            )
    makespan = execution.engine.run()
    execution.channel.close()
    stats = (
        execution.writer_stats if role == "simulation" else execution.reader_stats
    )
    empty = _ComponentStats()
    writer_stats = stats if role == "simulation" else empty
    reader_stats = stats if role == "analytics" else empty
    return RunResult(
        workflow_name=f"{spec.name}:probe-{role}",
        config_label=config.label,
        makespan=makespan,
        writer_span=writer_stats.span(),
        reader_span=reader_stats.span(),
        writer_phases=writer_stats.breakdown(spec.ranks),
        reader_phases=reader_stats.breakdown(spec.ranks),
        bytes_written=writer_stats.payload_bytes,
        bytes_read=reader_stats.payload_bytes,
    )
