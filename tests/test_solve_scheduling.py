"""Simulated results do not depend on how many solves an instant runs.

The flow network folds one instant's starts, completions and pokes into
one flush solve.  That is only sound if a solve reads resource state as
of its own instant: the Optane device relaxes its remote-write congestion
EWMA in ``advance(now)`` before every solve, so a second solve at the
same instant prices remote writes exactly like the first.  The property
below splits one instant's starts and pokes into k separate solves and
checks that no completion time moves beyond the solver's convergence
tolerance.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDeviceResource
from repro.sim.engine import Engine
from repro.sim.flow import Flow, FlowNetwork
from repro.units import GB, KiB

#: A congestion scale low enough that a handful of remote writers build
#: real EWMA pressure (the default needs ~14 sustained streams).
CONGESTED = dataclasses.replace(DEFAULT_CALIBRATION, remote_write_congestion_scale=1.5)

#: Completion times agree to this relative error.  Solves stop once no
#: rate moves by more than ``RATE_TOLERANCE`` (1e-5) per damped iteration;
#: a warm-started and a cold-started solve may stop on either side of the
#: fixed point, so the bound leaves a factor of ten over it.
SPLIT_TOLERANCE = 1e-4

INSTANTS = (0.0, 0.5, 2.0)

#: ``("start", at, kind, remote, gigabytes, software-capped)`` starts a
#: flow on the device; ``("poke", at, remote)`` registers a metadata
#: poller (it changes write shares) and pokes the network.
events = st.one_of(
    st.tuples(
        st.just("start"),
        st.sampled_from(INSTANTS),
        # Remote writes are what the congestion EWMA prices: draw them most.
        st.sampled_from(("write", "write", "read")),
        st.sampled_from((True, True, False)),
        st.sampled_from((1.0, 2.0, 4.0, 8.0)),
        st.booleans(),
    ),
    st.tuples(st.just("poke"), st.sampled_from(INSTANTS), st.booleans()),
)


def run(script, split):
    """Completion time of each flow of *script*; ``split`` forces a solve
    right after each event whose index it holds, at that same instant."""
    engine = Engine()
    net = FlowNetwork(engine)
    device = OptaneDeviceResource("pmem[0]", CONGESTED)
    done = {}

    def after(index):
        if index in split:
            net._flush_recompute()

    def start(index, kind, remote, gigabytes, capped):
        flow = Flow(
            nbytes=gigabytes * GB,
            kind=kind,
            remote=remote,
            resources=(device,),
            self_cap=3 * GB if capped else float("inf"),
            op_bytes=256 * KiB,
            issue_weight=0.6 if capped else 1.0,
            label=f"f{index}",
        )
        event = net.transfer(flow)
        after(index)
        yield event
        done[index] = engine.now

    def poke(index, remote):
        device.add_poller(remote=remote)
        net.poke(device)
        after(index)

    for index, (what, at, *args) in enumerate(script):
        if what == "start":
            engine.spawn(start(index, *args), delay=at)
        else:
            engine.schedule(at, lambda index=index, args=args: poke(index, *args))
    engine.run()
    net.close()
    return done


#: Five remote writers stream from t=0; at t=0.5 a poke is solved on its
#: own before a sixth writer starts.  A solve that read the EWMA before
#: relaxing it would price the two solves of t=0.5 differently.
_REMOTE_BURST = [("poke", 0.5, False)] + [
    ("start", 0.0, "write", True, gigabytes, False)
    for gigabytes in (1.0, 1.0, 1.0, 1.0, 2.0)
] + [("start", 0.5, "write", True, 1.0, False)]


@settings(max_examples=40, deadline=None)
@example(script=_REMOTE_BURST, split={0})
@given(
    script=st.lists(events, min_size=2, max_size=10),
    split=st.sets(st.integers(min_value=0, max_value=9), min_size=1),
)
def test_splitting_an_instant_into_k_solves_keeps_makespans(script, split):
    batched = run(script, frozenset())
    separate = run(script, split)
    assert batched.keys() == separate.keys()
    for index, finished in batched.items():
        assert abs(separate[index] - finished) <= SPLIT_TOLERANCE * finished, (
            index,
            finished,
            separate[index],
        )
