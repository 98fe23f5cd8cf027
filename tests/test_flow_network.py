"""Flow-network solve strategy and fast-vs-reference oracle tests.

``fast`` (scalar equivalence classes + converged-state memo) and
``reference`` (per-flow oracle) must agree *bit for bit* on randomized
flow sets — mixed kinds, localities, shared resources, the real Optane
device model and opaque stateful resources that bypass the memo.  The
network-level tests pin the recompute strategy: one solve of the whole
active flow set per recompute, starts and pokes deferred to the
end-of-timestamp flush, memo flushes only for state the memo key cannot
see, and the solver-health counter (``solves_at_cap``) with each solve's
final residual.
"""

import math
import random
import subprocess
import sys

import pytest

import repro.sim.flow as flow_module
from repro.errors import SimulationError
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDeviceResource
from repro.sim.engine import Engine
from repro.sim.flow import (
    SOLVER_FAST,
    SOLVER_REFERENCE,
    CapacityResource,
    FlowNetwork,
    default_solver,
    solve_flow_set,
)
from repro.units import KiB
from tests.test_solver_equivalence import (
    assert_results_identical,
    clone_flow,
    contended_resource,
    make_flow,
    solve_both,
)


class _OpaqueStateful(CapacityResource):
    """Overrides ``observe`` without a token protocol: memo must bypass."""

    def observe(self, now, load):
        pass


def random_flow_set(seed):
    """A seeded mixed workload over shared, device and opaque resources."""
    rng = random.Random(seed)
    shared = CapacityResource(
        "shared", lambda load: 120.0 / (1.0 + 0.3 * load.n_total)
    )
    side = CapacityResource(
        "side", lambda load: 50.0 / (1.0 + 0.5 * load.n_reads)
    )
    device = OptaneDeviceResource("pmem[0]", DEFAULT_CALIBRATION)
    opaque = _OpaqueStateful(
        "opaque", lambda load: 80.0 / (1.0 + 0.1 * load.n_writes)
    )
    pools = [
        (shared,),
        (side,),
        (shared, side),
        (device,),
        (shared, opaque),
    ]
    flows = []
    for i in range(rng.randrange(8, 28)):
        flow = make_flow(
            nbytes=rng.uniform(1.0, 1e6),
            kind=rng.choice(("read", "write")),
            remote=rng.random() < 0.4,
            resources=rng.choice(pools),
            self_cap=rng.choice((math.inf, 2e9, 4e9, 40.0)),
            op_bytes=rng.choice((256.0, 4 * KiB, 64 * KiB, 256 * KiB)),
            issue_weight=rng.choice((1.0, 1.0, 0.6)),
            label=f"f{i}",
        )
        if rng.random() < 0.3:  # some flows resume mid-transfer
            flow.duty = rng.uniform(0.05, 1.0)
        flows.append(flow)
    return flows


class TestByteIdentity:
    @pytest.mark.parametrize("seed", range(12))
    def test_fast_reference_bit_identical(self, seed):
        flows = random_flow_set(seed)
        fast_flows = [clone_flow(f) for f in flows]
        ref_flows = [clone_flow(f) for f in flows]
        fast = solve_flow_set(fast_flows, solver=SOLVER_FAST)
        ref = solve_flow_set(ref_flows, solver=SOLVER_REFERENCE)
        assert_results_identical(fast_flows, fast, ref_flows, ref)
        assert fast.converged == ref.converged


class TestSolverChoice:
    def test_default_solver_is_fast(self, monkeypatch):
        monkeypatch.delenv(flow_module.SOLVER_ENV, raising=False)
        assert default_solver() == SOLVER_FAST

    def test_vector_solver_rejected(self, monkeypatch):
        monkeypatch.setenv(flow_module.SOLVER_ENV, "vector")
        with pytest.raises(SimulationError, match="'fast', 'reference'"):
            FlowNetwork(Engine())
        with pytest.raises(SimulationError, match="unknown solver 'vector'"):
            solve_flow_set([make_flow(resources=[CapacityResource("r")])])

    def test_simulator_imports_without_numpy(self):
        code = (
            "import sys\n"
            "import repro.workflow.runner, repro.service.scheduler\n"
            "from repro.sim.flow import numpy_available\n"
            "numpy_available()\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


class TestFlowIdentity:
    def test_equal_fields_are_distinct_keys(self):
        r = CapacityResource("r", lambda load: 10.0)
        f = make_flow(nbytes=5.0, resources=[r], label="same")
        g = make_flow(nbytes=5.0, resources=[r], label="same")
        assert f != g
        assert f == f
        rates = {f: 1.0, g: 2.0}
        assert len(rates) == 2
        assert rates[f] == 1.0 and rates[g] == 2.0


class TestSingleSolve:
    def test_recompute_solves_whole_active_set_once(self, monkeypatch):
        """Disjoint resources still share one solve of the full list, and
        one instant's starts share one flush solve."""
        calls = []
        original = flow_module.solve_flow_set

        def counting(flows, **kwargs):
            calls.append(list(flows))
            return original(flows, **kwargs)

        monkeypatch.setattr(flow_module, "solve_flow_set", counting)
        engine = Engine()
        net = FlowNetwork(engine)
        ra = CapacityResource("a", lambda load: 10.0)
        rb = CapacityResource("b", lambda load: 10.0)
        flows = [
            make_flow(nbytes=50.0, resources=[ra], label="a"),
            make_flow(nbytes=30.0, resources=[rb], label="b1"),
            make_flow(nbytes=80.0, resources=[rb], label="b2"),
        ]
        done = {}

        def body(flow):
            yield net.transfer(flow)
            done[flow.label] = engine.now

        for flow in flows:
            engine.spawn(body(flow), name=flow.label)
        engine.run()
        assert calls[0] == flows  # three starts at t=0: one solve, in order
        assert len(calls) == net.recompute_count - 1  # final idle: no solve
        assert [len(c) for c in calls] == [3, 2, 1]
        assert net.recomputes_coalesced == 2  # starts b1 and b2 fold in
        assert done["a"] == pytest.approx(5.0)
        assert done["b1"] == pytest.approx(6.0)  # 30 B at 5 B/s
        assert done["b2"] == pytest.approx(11.0)  # 30 B at 5 + 50 B at 10


class TestCohorts:
    """Flows that start in one instant with one shape and state form a
    cohort: one completion timer per reschedule, members completed in
    start order; delayed starts share a start timer only back to back."""

    @staticmethod
    def record_completion_pushes(monkeypatch, engine, net):
        """``(now, cohort)`` per completion timer the network pushes."""
        pushes = []
        schedule = engine.schedule

        def recording(delay, callback):
            if getattr(callback, "func", None) == net._complete:
                pushes.append((engine.now, callback.args[0]))
            return schedule(delay, callback)

        monkeypatch.setattr(engine, "schedule", recording)
        return pushes

    def test_same_shape_starts_share_one_completion_timer(self, monkeypatch):
        engine = Engine()
        net = FlowNetwork(engine)
        pushes = self.record_completion_pushes(monkeypatch, engine, net)
        shared = contended_resource()
        writers = [
            make_flow(nbytes=100.0, resources=[shared], self_cap=30.0, label=f"w{i}")
            for i in range(4)
        ]
        late = make_flow(nbytes=40.0, resources=[shared], label="late")
        finished = []

        def body(flow, delay):
            yield net.transfer(flow, delay=delay)
            finished.append((flow.label, engine.now))

        for flow in writers:
            engine.spawn(body(flow, 0.0), name=flow.label)
        engine.spawn(body(late, 1.0), name="late")
        engine.run()
        cohorts = {cohort for _, cohort in pushes if writers[0] in cohort.flows}
        assert len(cohorts) == 1
        (cohort,) = cohorts
        assert cohort.flows == writers
        instants = [now for now, c in pushes if c is cohort]
        # Rescheduled at t=0, when `late` starts and when it finishes: one
        # timer each time, where per-flow timers would push four.
        assert instants == sorted(set(instants)) and len(instants) == 3
        ends = [(label, now) for label, now in finished if label != "late"]
        assert [label for label, _ in ends] == ["w0", "w1", "w2", "w3"]
        assert len({now for _, now in ends}) == 1
        assert net.flows_completed == 5 and net._cohorts == []

    def test_other_shape_or_size_between_starts_splits_the_cohort(self):
        engine = Engine()
        net = FlowNetwork(engine)
        shared = contended_resource()

        def writer(nbytes=100.0, self_cap=30.0):
            return make_flow(nbytes=nbytes, resources=[shared], self_cap=self_cap)

        a1, other, a2, a3, bigger = (
            writer(), writer(self_cap=50.0), writer(), writer(), writer(nbytes=200.0)
        )
        for flow in (a1, other, a2, a3, bigger):
            net.transfer(flow)
        assert [c.flows for c in net._cohorts] == [[a1], [other], [a2, a3], [bigger]]
        assert net.active_flows == (a1, other, a2, a3, bigger)
        engine.run()
        assert a2.done.triggered and a3.done.triggered and net._cohorts == []

    def test_start_after_the_flush_solve_does_not_join(self):
        """A flush hook registered after the network's runs after its
        solve, still at t=0: a flow it starts, even one given the solved
        flow's rate and duty, gets a cohort (and a timer) of its own."""
        engine = Engine()
        net = FlowNetwork(engine)
        shared = contended_resource()
        first, late = (
            make_flow(nbytes=100.0, resources=[shared], self_cap=30.0)
            for _ in range(2)
        )
        seen = []

        def start_late():
            if seen:
                return False
            late.rate, late.duty = first.rate, first.duty
            net.transfer(late)
            seen.append((engine.now, first.rate, [c.flows for c in net._cohorts]))
            return True

        net.transfer(first)
        engine.add_flush_hook(start_late)
        engine.run()
        ((now, solved_rate, cohorts),) = seen
        assert now == 0.0 and solved_rate > 0.0
        assert cohorts == [[first], [late]]
        assert first.done.triggered and late.done.triggered

    def test_delayed_starts_merge_only_back_to_back(self):
        engine = Engine()
        net = FlowNetwork(engine)
        r = CapacityResource("r", lambda load: 10.0)
        flows = [make_flow(nbytes=10.0, resources=[r], label=f"f{i}") for i in range(4)]
        net.transfer(flows[0], delay=1.0)
        net.transfer(flows[1], delay=1.0)  # nothing pushed since: shares it
        assert engine.timers_scheduled == 1
        engine.schedule(5.0, lambda: None)
        net.transfer(flows[2], delay=1.0)  # a timer in between: its own
        net.transfer(flows[3], delay=0.5)  # another due time: its own
        assert engine.timers_scheduled == 4
        engine.run()
        assert [f.started_at for f in flows] == [1.0, 1.0, 1.0, 0.5]
        assert all(f.done.triggered for f in flows)

    @pytest.mark.parametrize("delay", [-1.0, math.nan])
    def test_invalid_start_delay_rejected(self, delay):
        net = FlowNetwork(Engine())
        with pytest.raises(SimulationError, match="start delay"):
            net.transfer(make_flow(resources=[contended_resource()]), delay=delay)


def _oscillating_resource():
    """A resource whose capacity jumps *up* with occupancy.

    For a software-capped flow the duty then chases a target that flips
    between ~0 and ~1 across ``n_total = 0.5``, so the damped fixed point
    oscillates and no iteration count converges it.
    """
    return CapacityResource(
        "oscillating", lambda load: 1e9 if load.n_total >= 0.5 else 0.01
    )


class TestSolvesAtCap:
    def test_capped_cell_counts_every_unconverged_solve(self, monkeypatch):
        """Every capped solve is counted and reports a residual above
        ``RATE_TOLERANCE``; converged ones report one below it."""
        converged, unconverged = [], []
        original = flow_module.solve_flow_set

        def counting(flows, **kwargs):
            result = original(flows, **kwargs)
            if result.converged:
                converged.append(result)
            else:
                assert result.iterations == flow_module.DUTY_ITERATIONS
                unconverged.append(result)
            return result

        monkeypatch.setattr(flow_module, "solve_flow_set", counting)
        engine = Engine()
        net = FlowNetwork(engine)
        bad = _oscillating_resource()
        good = CapacityResource("steady", lambda load: 10.0)

        def body(flow, delay):
            yield engine.timeout_event(delay)
            yield net.transfer(flow)

        for i in range(3):
            flow = make_flow(
                nbytes=1.0, resources=[bad], self_cap=1.0, label=f"bad{i}"
            )
            engine.spawn(body(flow, 1.0 + i), name=flow.label)
        engine.spawn(
            body(make_flow(nbytes=500.0, resources=[good], label="ok"), 0.0),
            name="ok",
        )
        engine.run()
        assert net.solves_at_cap > 0
        assert net.solves_at_cap == len(unconverged)
        assert converged  # the steady flow, alone until t=1, converges
        assert all(r.residual >= flow_module.RATE_TOLERANCE for r in unconverged)
        assert all(r.residual < flow_module.RATE_TOLERANCE for r in converged)

    def test_memo_hit_replays_convergence_flag(self):
        shared = CapacityResource(
            "shared", lambda load: 120.0 / (1.0 + 0.3 * load.n_total)
        )
        memo = flow_module.OrderedDict()
        flows = [
            make_flow(nbytes=100.0, resources=[shared], self_cap=40.0, label="x")
        ]
        first = solve_flow_set([clone_flow(f) for f in flows], memo=memo)
        hit = solve_flow_set([clone_flow(f) for f in flows], memo=memo)
        assert hit.memo_hit
        assert hit.converged == first.converged
        assert hit.residual == first.residual < flow_module.RATE_TOLERANCE
        memo[next(iter(memo))] = memo[next(iter(memo))][:-1] + (False,)
        replay = solve_flow_set([clone_flow(f) for f in flows], memo=memo)
        assert replay.memo_hit and not replay.converged


class TestGtcReuse:
    def test_gtc_workflow_reuses_solver_work(self):
        """The historical GTC pathology — memo hit rate pinned at 0.0 —
        is fixed: read-only phases memo-hit across the congestion EWMA's
        drift under the default solver."""
        from repro.apps.gtc import gtc_workflow
        from repro.core.configs import P_LOCR
        from repro.obs.capture import observe_workflow

        observation = observe_workflow(
            gtc_workflow(ranks=4, iterations=2), P_LOCR
        )
        stats = observation.solver_stats
        hits = stats.get("solver_memo_hits", 0)
        attempts = hits + stats.get("solver_memo_misses", 0)
        assert attempts > 0 and hits / attempts > 0


class TestPokeDeferral:
    def test_poke_defers_solve_to_flush(self):
        """Same-instant poke bursts cost one solve, not one per poke."""
        engine = Engine()
        net = FlowNetwork(engine)
        state = {"capacity": 10.0}
        r = CapacityResource("mutable", lambda load: state["capacity"])

        def body():
            yield net.transfer(make_flow(nbytes=100.0, resources=[r]))

        recorded = {}

        def burst():
            state["capacity"] = 5.0
            before = net.recompute_count
            coalesced = net.recomputes_coalesced
            for _ in range(3):
                net.poke()
            recorded["solved_inline"] = net.recompute_count - before
            recorded["absorbed"] = net.recomputes_coalesced - coalesced

        engine.spawn(body(), name="p")
        engine.schedule(2.0, burst)
        engine.run()
        assert recorded["solved_inline"] == 0  # deferred to the flush
        assert recorded["absorbed"] == 2  # pokes 2 and 3 fold into 1
        assert engine.now == pytest.approx(18.0)

    def test_targeted_poke_clears_memo_only_for_tokenless_state(self):
        """A poke naming a token-protocol resource keeps the memo (its key
        already covers that state); a token-less resource flushes it."""

        class Tokened(CapacityResource):
            def share_state_token(self, kind, remote):
                return ()

        engine = Engine()
        net = FlowNetwork(engine)
        tokened = Tokened("tokened", lambda load: 10.0)
        plain = CapacityResource("plain", lambda load: 10.0)

        def body():
            yield net.transfer(make_flow(nbytes=100.0, resources=[tokened]))

        memo_sizes = {}

        def pokes():
            memo_sizes["start"] = len(net._memo)
            net.poke(tokened)
            memo_sizes["tokened"] = len(net._memo)
            net.poke(plain)
            memo_sizes["plain"] = len(net._memo)

        engine.spawn(body(), name="p")
        engine.schedule(2.0, pokes)
        engine.run()
        assert memo_sizes["start"] > 0
        assert memo_sizes["tokened"] == memo_sizes["start"]
        assert memo_sizes["plain"] == 0


KEYED_SHARED = CapacityResource(
    "shared", lambda load: 120e9 / (1.0 + 0.3 * load.n_total)
)
KEYED_OTHER = CapacityResource("other", lambda load: 90e9)
KEYED_DEVICE = OptaneDeviceResource("pmem[0]", DEFAULT_CALIBRATION)


def keyed_flow_set(overrides=None):
    """Three local writes and two remote reads over a shared curve and the
    real device; *overrides* maps a flow index to replaced ``Flow`` kwargs."""
    write = dict(
        nbytes=1e6,
        kind="write",
        remote=False,
        resources=(KEYED_SHARED, KEYED_DEVICE),
        self_cap=4e9,
        op_bytes=64 * KiB,
        issue_weight=1.0,
    )
    read = dict(
        write,
        kind="read",
        remote=True,
        resources=(KEYED_DEVICE,),
        self_cap=2e9,
        op_bytes=4 * KiB,
        issue_weight=0.6,
    )
    specs = [dict(write, label=f"w{i}") for i in range(3)]
    specs += [dict(read, label=f"r{i}") for i in range(2)]
    for index, changes in (overrides or {}).items():
        specs[index].update(changes)
    return [make_flow(**spec) for spec in specs]


class TestMemoKey:
    """The memo keys on per-flow shapes and duties, in flow order."""

    def solve_after_base(self, flows):
        """Solve the base set into a fresh memo, then solve *flows*."""
        memo = flow_module.OrderedDict()
        first = solve_flow_set(keyed_flow_set(), memo=memo)
        assert first.memo_attempted and not first.memo_hit
        return solve_flow_set(flows, memo=memo)

    def test_cloned_flow_set_hits_without_building_classes(self, monkeypatch):
        memo = flow_module.OrderedDict()
        flows = keyed_flow_set()
        first = solve_flow_set(flows, memo=memo)
        # Payload and label are not solver inputs: still the same key.
        clones = keyed_flow_set()
        for i, clone in enumerate(clones):
            clone.nbytes = clone.remaining = 5e5 + i
            clone.label = f"clone{i}"

        def no_plan(*args):
            raise AssertionError("a memo hit built a solver plan")

        monkeypatch.setattr(flow_module, "_build_plan", no_plan)
        hit = solve_flow_set(clones, memo=memo)
        assert hit.memo_hit
        assert hit.classes == first.classes == 2
        assert hit.iterations == first.iterations
        assert hit.loads is first.loads
        assert [hit.rates[f] for f in clones] == [first.rates[f] for f in flows]
        assert [f.duty for f in clones] == [f.duty for f in flows]

    def test_miss_calls_share_once_per_group_per_iteration(self, monkeypatch):
        """A miss evaluates ``share()`` exactly iterations × share groups
        times: one call per (resource, share projection) per iteration."""
        calls = []
        for cls in (CapacityResource, OptaneDeviceResource):
            original = cls.share

            def counting(resource, load, flow, original=original):
                calls.append(resource)
                return original(resource, load, flow)

            monkeypatch.setattr(cls, "share", counting)
        # Four classes (a second self cap, a second duty) in three groups:
        # the shared curve reads no flow field, the device reads
        # (kind, remote), so all three write classes share two groups.
        flows = keyed_flow_set({1: {"self_cap": 3e9}})
        flows[2].duty = 0.5
        groups = {(r, type(r).share_projector(f)) for f in flows for r in f.resources}
        assert len(groups) == 3
        result = solve_flow_set(flows, memo=flow_module.OrderedDict())
        assert not result.memo_hit and result.iterations > 1
        assert result.classes == 4
        assert len(calls) == result.iterations * len(groups)
        assert calls.count(KEYED_SHARED) == result.iterations

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "read"),
            ("remote", True),
            ("resources", (KEYED_OTHER, KEYED_DEVICE)),
            ("self_cap", 3e9),
            ("op_bytes", 32 * KiB),
            ("issue_weight", 0.5),
        ],
    )
    def test_any_static_field_change_misses(self, field, value):
        second = self.solve_after_base(keyed_flow_set({1: {field: value}}))
        assert second.memo_attempted and not second.memo_hit

    def test_one_ulp_duty_nudge_misses(self):
        flows = keyed_flow_set()
        flows[2].duty = math.nextafter(flows[2].duty, 0.0)
        second = self.solve_after_base(flows)
        assert second.memo_attempted and not second.memo_hit

    def test_permuted_flow_order_misses(self):
        # Summation order is part of the result, so flow order is part of
        # the key.  The first flow stays first, so the resource order (and
        # with it the token tuple) is unchanged: only the order differs.
        w0, w1, w2, r0, r1 = keyed_flow_set()
        second = self.solve_after_base([w0, r0, w1, w2, r1])
        assert second.memo_attempted and not second.memo_hit

    def test_shape_matches_fields_for_runner_built_flows(self, monkeypatch):
        from repro.apps.suite import build_workflow
        from repro.core.configs import P_LOCR
        from repro.workflow.runner import run_workflow

        seen = []
        original = flow_module.solve_flow_set

        def collecting(flows, **kwargs):
            seen.extend(flows)
            return original(flows, **kwargs)

        monkeypatch.setattr(flow_module, "solve_flow_set", collecting)
        run_workflow(build_workflow("micro-2k", 8, iterations=2), P_LOCR)
        assert seen
        for f in seen:
            assert f.shape == (
                f.kind,
                f.remote,
                f.resources,
                f.self_cap,
                f.op_bytes,
                f.issue_weight,
            )


class TestFlowOrderAccumulation:
    """Twelve classes interleaved in flow order with unrelated duties: every
    load field must be folded flow by flow, as the reference does.
    Regrouping the same terms by class (e.g. sorting a resource's reader
    or writer list) rounds differently on several of these seeds."""

    @pytest.mark.parametrize("seed", range(12))
    def test_interleaved_classes_bit_identical(self, seed):
        rng = random.Random(seed)
        shared = contended_resource()
        duties = [rng.uniform(0.05, 1.0) for _ in range(3)]
        flows = []
        for i in range(24):
            flow = make_flow(
                kind="read" if i % 2 == 0 else "write",
                remote=(i // 2) % 2 == 1,
                resources=[shared],
                self_cap=30.0,
                op_bytes=4 * KiB,
                label=f"f{i}",
            )
            flow.duty = duties[i % 3]
            flows.append(flow)
        assert_results_identical(*solve_both(flows))


class _NanShare(CapacityResource):
    """A broken device model whose ``share()`` returns NaN."""

    def share(self, load, flow):
        return math.nan


class TestNanShare:
    """A NaN share must raise, not read as "unconstrained" (``nan < x`` is
    false, so a bare min would skip it and hand the flow its self cap)."""

    @pytest.mark.parametrize("solver", [SOLVER_FAST, SOLVER_REFERENCE])
    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_share_raises_naming_the_resource(self, solver, nan_first):
        finite = CapacityResource("finite", lambda load: 10.0)
        bad = _NanShare("bad")
        path = (bad, finite) if nan_first else (finite, bad)
        flows = [
            make_flow(resources=path, self_cap=5.0, label="f0"),
            make_flow(kind="read", resources=(finite,), self_cap=5.0, label="f1"),
        ]
        with pytest.raises(SimulationError, match="'bad'.*NaN"):
            solve_flow_set(flows, solver=solver, memo=flow_module.OrderedDict())


class TestRateGauges:
    def test_rate_achieved_is_the_converged_rate_sum(self, monkeypatch):
        """At every recompute, ``resource.rate_achieved`` is the flow-order
        sum of the rates that recompute's solve converged to."""
        from repro.apps.suite import build_workflow
        from repro.core.configs import P_LOCR
        from repro.obs.capture import Observation, observe_workflow
        from repro.obs.hooks import NetworkHooks

        expected = []
        original = flow_module.solve_flow_set

        def recording(flows, **kwargs):
            result = original(flows, **kwargs)
            sums = {}
            for f in flows:
                for r in f.resources:
                    sums[r.name] = sums.get(r.name, 0.0) + result.rates[f]
            expected.append(sums)
            return result

        achieved = []

        class Checking(NetworkHooks):
            def __init__(self, probes):
                super().__init__(probes)
                self.registry = probes

            def on_recompute(self, now, flows, loads):
                super().on_recompute(now, flows, loads)
                if flows:
                    achieved.append(
                        {
                            r.name: self.registry.gauge(
                                "resource.rate_achieved", resource=r.name
                            ).value
                            for r in loads
                        }
                    )

        monkeypatch.setattr(flow_module, "solve_flow_set", recording)
        monkeypatch.setattr(
            Observation, "network_hooks", lambda self: Checking(self.probes)
        )
        observe_workflow(build_workflow("micro-2k", 8, iterations=6), P_LOCR)
        assert len(expected) > 10
        assert achieved == expected

    def test_observation_adds_no_share_calls(self, monkeypatch):
        """Observing a run evaluates no ``share()`` beyond the solver's own."""
        from repro.apps.suite import build_workflow
        from repro.core.configs import P_LOCR
        from repro.obs.capture import observe_workflow
        from repro.platform.interconnect import UpiLink
        from repro.workflow.runner import run_workflow

        calls = []
        for rtype in (CapacityResource, OptaneDeviceResource, UpiLink):

            def counting(resource, load, flow, original=rtype.share):
                calls.append(resource)
                return original(resource, load, flow)

            monkeypatch.setattr(rtype, "share", counting)
        spec = build_workflow("micro-2k", 8)
        run_workflow(spec, P_LOCR)
        plain = len(calls)
        del calls[:]
        observe_workflow(spec, P_LOCR)
        assert plain > 0
        assert len(calls) == plain
