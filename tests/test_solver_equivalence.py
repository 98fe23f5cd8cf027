"""Fast-solver equivalence oracle: class solving + memo vs. the reference.

The PR's central promise made executable: the equivalence-class solver with
its converged-state memo must reproduce the original per-flow solver *bit
for bit* — same rates, same duties, same iteration counts, same load
objects handed to ``observe()``/hooks — all the way up to entire campaigns
(identical cell ids, byte-identical deterministic payloads) and exported
Chrome traces.  Anything weaker and "3-10x faster" silently becomes "a
different simulator".
"""

import json

import pytest

from repro.core.configs import ALL_CONFIGS
from repro.errors import SimulationError
from repro.obs.campaign import run_campaign
from repro.obs.capture import observe_workflow
from repro.obs.export import chrome_trace
from repro.obs.store import canonical_json
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDeviceResource
from repro.sim.engine import Engine
from repro.sim.flow import (
    SOLVER_FAST,
    SOLVER_REFERENCE,
    CapacityResource,
    Flow,
    FlowNetwork,
    solve_flow_set,
)
from repro.storage.objects import SnapshotSpec
from repro.units import KiB
from repro.workflow.kernels import FixedWorkKernel
from repro.workflow.spec import WorkflowSpec


def fixed_resource(capacity, name="r"):
    return CapacityResource(name, lambda load: capacity)


def make_flow(nbytes=100.0, kind="write", remote=False, resources=(), **kw):
    return Flow(
        nbytes=nbytes, kind=kind, remote=remote, resources=tuple(resources), **kw
    )


def clone_flow(flow):
    """An independent Flow with identical solver-relevant inputs."""
    twin = Flow(
        nbytes=flow.nbytes,
        kind=flow.kind,
        remote=flow.remote,
        resources=flow.resources,
        self_cap=flow.self_cap,
        op_bytes=flow.op_bytes,
        label=flow.label,
        issue_weight=flow.issue_weight,
    )
    twin.duty = flow.duty
    return twin


def contended_resource(name="shared"):
    """A load-sensitive capacity curve so classes actually interact."""
    return CapacityResource(
        name, lambda load: 100.0 / (1.0 + 0.25 * load.n_total)
    )


def heterogeneous_flow_set():
    """Three equivalence classes sharing two load-sensitive resources."""
    shared = contended_resource()
    side = CapacityResource("side", lambda load: 40.0 / (1.0 + load.n_reads))
    flows = []
    for i in range(6):
        flows.append(
            make_flow(
                kind="write",
                resources=[shared],
                self_cap=30.0,
                op_bytes=64 * KiB,
                label=f"w{i}",
            )
        )
    for i in range(4):
        flows.append(
            make_flow(
                kind="read",
                remote=True,
                resources=[shared, side],
                self_cap=50.0,
                op_bytes=4 * KiB,
                label=f"r{i}",
                issue_weight=0.6,
            )
        )
    flows.append(
        make_flow(kind="read", resources=[side], label="lone", self_cap=80.0)
    )
    return flows, [shared, side]


def solve_both(flows):
    """Solve clones of *flows* under both solvers; returns the two results."""
    fast_flows = [clone_flow(f) for f in flows]
    ref_flows = [clone_flow(f) for f in flows]
    fast = solve_flow_set(fast_flows, solver=SOLVER_FAST)
    ref = solve_flow_set(ref_flows, solver=SOLVER_REFERENCE)
    return fast_flows, fast, ref_flows, ref


def assert_results_identical(fast_flows, fast, ref_flows, ref):
    """Exact (not approximate) equality of everything the solver returns."""
    assert fast.iterations == ref.iterations
    for ff, rf in zip(fast_flows, ref_flows):
        assert fast.rates[ff] == ref.rates[rf]  # exact float equality
        assert ff.duty == rf.duty
    fast_loads = {r.name: load for r, load in fast.loads.items()}
    ref_loads = {r.name: load for r, load in ref.loads.items()}
    assert set(fast_loads) == set(ref_loads)
    for name in fast_loads:
        a, b = fast_loads[name], ref_loads[name]
        for field in (
            "n_read_local",
            "n_read_remote",
            "n_write_local",
            "n_write_remote",
            "raw_read_local",
            "raw_read_remote",
            "raw_write_local",
            "raw_write_remote",
            "read_op_bytes",
            "write_op_bytes",
            "congestion_write_remote",
        ):
            assert getattr(a, field) == getattr(b, field), (name, field)


class TestByteIdentity:
    def test_heterogeneous_set_bit_identical(self):
        flows, _ = heterogeneous_flow_set()
        assert_results_identical(*solve_both(flows))

    def test_identical_flows_bit_identical(self):
        r = contended_resource()
        flows = [
            make_flow(resources=[r], self_cap=25.0, op_bytes=256 * KiB)
            for _ in range(8)
        ]
        assert_results_identical(*solve_both(flows))

    def test_optane_device_resource_bit_identical(self):
        device = OptaneDeviceResource("pmem[0]", DEFAULT_CALIBRATION)
        flows = [
            make_flow(
                kind="write",
                remote=True,
                resources=[device],
                self_cap=2e9,
                op_bytes=256 * KiB,
                issue_weight=0.5,
            )
            for _ in range(12)
        ] + [
            make_flow(
                kind="read",
                resources=[device],
                self_cap=4e9,
                op_bytes=64 * KiB,
            )
            for _ in range(6)
        ]
        assert_results_identical(*solve_both(flows))

    def test_infinite_self_cap_and_unconstrained_paths(self):
        r = fixed_resource(10.0)
        flows = [
            make_flow(resources=[r]),  # device-bound, duty -> 1
            make_flow(resources=[r]),
            make_flow(resources=(), self_cap=5.0, label="cpu-only"),
        ]
        assert_results_identical(*solve_both(flows))

    def test_start_cascade_duty_classes_of_one_shape_bit_identical(self):
        """Flows started one solve at a time keep their warm duties, so
        each shape splits into several duty classes; the per-shape rate
        update must still match the per-flow oracle at every step."""
        device = OptaneDeviceResource("pmem[0]", DEFAULT_CALIBRATION)
        fast_flows, ref_flows = [], []
        most_classes = 0
        for i in range(8):
            flows = [
                make_flow(
                    kind="write",
                    remote=True,
                    resources=[device],
                    self_cap=2e9,
                    op_bytes=256 * KiB,
                    issue_weight=0.5,
                    label=f"w{i}",
                )
            ]
            if i % 3 == 0:
                flows.append(
                    make_flow(
                        kind="read",
                        resources=[device],
                        self_cap=4e9,
                        op_bytes=64 * KiB,
                        label=f"r{i}",
                    )
                )
            fast_flows += flows
            ref_flows += [clone_flow(f) for f in flows]
            fast = solve_flow_set(fast_flows, solver=SOLVER_FAST)
            ref = solve_flow_set(ref_flows, solver=SOLVER_REFERENCE)
            assert_results_identical(fast_flows, fast, ref_flows, ref)
            most_classes = max(most_classes, fast.classes)
        assert most_classes > 2  # more duty classes than the two shapes

    def test_unbounded_shape_of_several_classes_names_its_first_flow(self):
        """The unbounded-rate error names a flow label under both solvers:
        the first unbounded flow, whichever class it warmed into."""
        bounded = make_flow(resources=[fixed_resource(10.0)], label="bounded")
        loose = [make_flow(resources=(), label=f"loose{i}") for i in range(3)]
        loose[0].duty = 0.5
        loose[2].duty = 0.25
        for solver in (SOLVER_FAST, SOLVER_REFERENCE):
            flows = [clone_flow(f) for f in [bounded] + loose]
            with pytest.raises(SimulationError, match="'loose0' has unbounded"):
                solve_flow_set(flows, solver=solver)

    def test_unbounded_flow_rejected_by_both(self):
        flow = make_flow(resources=())
        for solver in (SOLVER_FAST, SOLVER_REFERENCE):
            with pytest.raises(SimulationError, match="unbounded"):
                solve_flow_set([clone_flow(flow)], solver=solver)

    def test_unknown_solver_rejected(self):
        with pytest.raises(SimulationError, match="unknown solver"):
            solve_flow_set([make_flow(resources=[fixed_resource(1.0)])], solver="turbo")


class TestEquivalenceClasses:
    def test_identical_flows_form_one_class(self):
        r = fixed_resource(10.0)
        flows = [make_flow(resources=[r], self_cap=20.0) for _ in range(16)]
        result = solve_flow_set(flows, solver=SOLVER_FAST)
        assert result.classes == 1

    def test_signature_fields_split_classes(self):
        r = fixed_resource(10.0)
        flows = [
            make_flow(resources=[r], self_cap=20.0),
            make_flow(resources=[r], self_cap=20.0),  # same class as above
            make_flow(resources=[r], self_cap=21.0),  # self_cap differs
            make_flow(resources=[r], kind="read"),  # kind differs
            make_flow(resources=[r], remote=True),  # remote differs
            make_flow(resources=[r], op_bytes=4 * KiB),  # op size differs
            make_flow(resources=[r], issue_weight=0.5),  # weight differs
        ]
        result = solve_flow_set(flows, solver=SOLVER_FAST)
        assert result.classes == 6

    def test_divergent_duty_splits_classes(self):
        r = fixed_resource(10.0)
        a = make_flow(resources=[r], self_cap=20.0)
        b = make_flow(resources=[r], self_cap=20.0)
        b.duty = 0.5  # warm-started differently -> different trajectory
        result = solve_flow_set([a, b], solver=SOLVER_FAST)
        assert result.classes == 2

    def test_reference_solver_reports_no_classes(self):
        r = fixed_resource(10.0)
        result = solve_flow_set(
            [make_flow(resources=[r])], solver=SOLVER_REFERENCE
        )
        assert result.classes == 0


class TestConvergedStateMemo:
    def run_twice(self, make_flows, memo):
        first = solve_flow_set(make_flows(), solver=SOLVER_FAST, memo=memo)
        second = solve_flow_set(make_flows(), solver=SOLVER_FAST, memo=memo)
        return first, second

    def test_repeat_solve_hits_and_replays(self):
        from collections import OrderedDict

        r = fixed_resource(10.0)

        def flows():
            return [make_flow(resources=[r], self_cap=20.0) for _ in range(4)]

        memo = OrderedDict()
        first, second = self.run_twice(flows, memo)
        assert first.memo_attempted and not first.memo_hit
        assert second.memo_attempted and second.memo_hit
        # The hit replays the stored cost signal and loads, not zeros.
        assert second.iterations == first.iterations > 0
        assert list(second.rates.values()) == list(first.rates.values())
        assert [r.name for r in second.loads] == [r.name for r in first.loads]

    def test_stateless_resource_state_change_invisible_but_token_seen(self):
        from collections import OrderedDict

        class Tokened(CapacityResource):
            def __init__(self):
                super().__init__("tok", lambda load: self.cap)
                self.cap = 10.0

            def share_state_token(self, kind, remote):
                return (self.cap,)

        resource = Tokened()

        def flows():
            return [make_flow(resources=[resource], self_cap=20.0)]

        memo = OrderedDict()
        first, second = self.run_twice(flows, memo)
        assert second.memo_hit
        resource.cap = 5.0  # token changes -> memo key changes -> miss
        third = solve_flow_set(flows(), solver=SOLVER_FAST, memo=memo)
        assert third.memo_attempted and not third.memo_hit
        assert list(third.rates.values())[0] != list(first.rates.values())[0]

    def test_opaque_stateful_resource_bypasses_memo(self):
        from collections import OrderedDict

        class Watching(CapacityResource):
            def observe(self, now, load):  # stateful, but no token
                pass

        resource = Watching("opaque", lambda load: 10.0)
        memo = OrderedDict()
        first, second = self.run_twice(
            lambda: [make_flow(resources=[resource])], memo
        )
        assert not first.memo_attempted and not second.memo_attempted
        assert not memo

    def test_no_memo_means_no_attempt(self):
        r = fixed_resource(10.0)
        result = solve_flow_set([make_flow(resources=[r])], solver=SOLVER_FAST)
        assert not result.memo_attempted

    def test_memo_capacity_bounded(self):
        from collections import OrderedDict

        from repro.sim.flow import MEMO_CAPACITY

        r = fixed_resource(1000.0)
        memo = OrderedDict()
        for i in range(MEMO_CAPACITY + 20):
            solve_flow_set(
                [make_flow(resources=[r], self_cap=float(i + 1))],
                solver=SOLVER_FAST,
                memo=memo,
            )
        assert len(memo) <= MEMO_CAPACITY


class TestNetworkCountersAndCoalescing:
    def drive(self, **net_kwargs):
        engine = Engine()
        net = FlowNetwork(engine, **net_kwargs)
        r = fixed_resource(10.0)

        def body(label):
            yield net.transfer(
                make_flow(nbytes=50.0, resources=[r], label=label)
            )

        engine.spawn(body("a"), name="a")
        engine.spawn(body("b"), name="b")
        engine.run()
        return engine, net

    def test_same_instant_completions_coalesce(self):
        _, net = self.drive()
        # Two identical flows start at the same instant and complete at
        # the same instant: each pair of requests collapses into one flush
        # solve.
        assert net.recomputes_coalesced == 2
        # one coalesced start flush, one coalesced completion flush.
        assert net.recompute_count == 2
        assert net.flows_completed == 2

    def test_memo_counters_surface_on_network(self):
        _, net = self.drive()
        # One flow-carrying solve (the completion flush solves an empty
        # set, which attempts neither classing nor the memo): the two
        # identical flows share one class, and the key misses the cold
        # memo.
        assert net.solver_classes == 1
        assert net.memo_hits == 0
        assert net.memo_misses == 1

    def test_reference_network_skips_strategy_counters(self):
        _, net = self.drive(solver=SOLVER_REFERENCE)
        assert net.solver_classes == 0
        assert net.memo_hits == net.memo_misses == 0
        assert net.solver_iterations > 0

    def test_poke_clears_memo(self):
        engine = Engine()
        net = FlowNetwork(engine)
        state = {"capacity": 10.0}
        r = CapacityResource("mutable", lambda load: state["capacity"])

        def body():
            yield net.transfer(make_flow(nbytes=100.0, resources=[r]))

        def throttle():
            state["capacity"] = 5.0
            net.poke()

        engine.spawn(body(), name="p")
        engine.schedule(2.0, throttle)
        engine.run()
        # The capacity change is invisible to the memo key; correctness
        # requires poke() to flush the memo and re-solve at the flush for
        # the poke's instant (no virtual time passes in between) — a
        # stale hit would keep the 10 B/s rate and finish at 12s.
        assert engine.now == pytest.approx(18.0)

    def test_env_variables_configure_network(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", SOLVER_REFERENCE)
        net = FlowNetwork(Engine())
        assert net.solver == SOLVER_REFERENCE

    def test_bad_solver_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "turbo")
        with pytest.raises(SimulationError, match="unknown solver"):
            FlowNetwork(Engine())


def oracle_spec():
    return WorkflowSpec(
        name="oracle@4",
        ranks=4,
        iterations=3,
        snapshot=SnapshotSpec(object_bytes=64 * KiB, objects_per_snapshot=16),
        sim_compute=FixedWorkKernel(seconds=0.05),
        analytics_compute=FixedWorkKernel(seconds=0.02),
    )


class TestDeterminismOracle:
    """Fast paths on vs. ``REPRO_SOLVER=reference``: identical outputs."""

    def campaign_under(self, monkeypatch, solver):
        monkeypatch.setenv("REPRO_SOLVER", solver)
        return run_campaign(suite="micro", iterations=1)

    def test_micro_campaign_identical_cells(self, monkeypatch):
        fast = self.campaign_under(monkeypatch, SOLVER_FAST)
        ref = self.campaign_under(monkeypatch, SOLVER_REFERENCE)
        assert [c.cell_id for c in fast.cells] == [
            c.cell_id for c in ref.cells
        ]
        assert [canonical_json(c.deterministic) for c in fast.cells] == [
            canonical_json(c.deterministic) for c in ref.cells
        ]

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_observed_runs_identical_makespans_and_traces(
        self, monkeypatch, config
    ):
        exports = {}
        for solver in (SOLVER_FAST, SOLVER_REFERENCE):
            monkeypatch.setenv("REPRO_SOLVER", solver)
            observation = observe_workflow(oracle_spec(), config)
            makespan = observation.result.makespan
            trace = json.dumps(
                chrome_trace([observation]), sort_keys=True
            ).encode()
            exports[solver] = (makespan.hex(), trace)
        assert exports[SOLVER_FAST] == exports[SOLVER_REFERENCE]
