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
    make_flow,
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

    def test_uncoalesced_poke_solves_inline(self):
        """With coalescing off, poke() keeps the synchronous semantics."""
        engine = Engine()
        net = FlowNetwork(engine, coalesce=False)
        state = {"capacity": 10.0}
        r = CapacityResource("mutable", lambda load: state["capacity"])

        def body():
            yield net.transfer(make_flow(nbytes=100.0, resources=[r]))

        recorded = {}

        def throttle():
            state["capacity"] = 5.0
            before = net.recompute_count
            net.poke()
            recorded["solved_inline"] = net.recompute_count - before

        engine.spawn(body(), name="p")
        engine.schedule(2.0, throttle)
        engine.run()
        assert recorded["solved_inline"] == 1
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
