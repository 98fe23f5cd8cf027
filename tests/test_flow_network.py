"""Flow-network solve strategy and fast-vs-reference oracle tests.

``fast`` (scalar equivalence classes + converged-state memo) and
``reference`` (per-flow oracle) must agree *bit for bit* on randomized
flow sets — mixed kinds, localities, shared resources, the real Optane
device model and opaque stateful resources that bypass the memo.  The
network-level tests pin the recompute strategy: one solve of the whole
active flow set per recompute, pokes deferred to the end-of-timestamp
flush, memo flushes only for state the memo key cannot see, and the
solver-health counter (``solves_at_cap``).
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
        """Disjoint resources still share one solve of the full list."""
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
        assert calls[2] == flows  # the third start solves all three at once
        assert len(calls) == net.recompute_count - 1  # final idle: no solve
        assert [len(c) for c in calls] == [1, 2, 3, 2, 1]
        assert done["a"] == pytest.approx(5.0)
        assert done["b1"] == pytest.approx(6.0)  # 30 B at 5 B/s
        assert done["b2"] == pytest.approx(11.0)  # 30 B at 5 + 50 B at 10


class TestSolvesAtCap:
    def test_capped_cell_counts_every_unconverged_solve(self, monkeypatch):
        from repro.apps.suite import build_workflow
        from repro.core.configs import P_LOCW
        from repro.obs.capture import observe_workflow

        unconverged = []
        original = flow_module.solve_flow_set

        def counting(flows, **kwargs):
            result = original(flows, **kwargs)
            if not result.converged:
                assert result.iterations == flow_module.DUTY_ITERATIONS
                unconverged.append(result)
            return result

        monkeypatch.setattr(flow_module, "solve_flow_set", counting)
        observation = observe_workflow(build_workflow("micro-2k", 16), P_LOCW)
        capped = observation.solver_stats["solves_at_cap"]
        assert capped > 0
        assert capped == len(unconverged)

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
        observe_workflow(build_workflow("micro-2k", 8, iterations=2), P_LOCR)
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
