"""Cross-socket interconnect (UPI) model.

The severe cross-NUMA PMEM degradations are calibrated directly into the
device model's remote factors (:mod:`repro.pmem.bandwidth`), because they
are a combined device + interconnect phenomenon measured end to end by the
literature.  The explicit :class:`UpiLink` resource bounds aggregate
cross-socket traffic (data + coherence, both directions pooled at our
fidelity) so that remote flows can never exceed the physical link, and so
that unrelated remote flows contend with one another.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.sim.flow import CapacityResource, Flow, ResourceLoad


class UpiLink(CapacityResource):
    """Pooled UPI capacity between a pair of sockets."""

    __slots__ = ("bandwidth",)

    #: :meth:`share` reads no flow field, so one evaluation per load stands
    #: for every flow on the link (the grouping of the inherited policy).
    share_signature_fields = ()

    def __init__(self, socket_a: int, socket_b: int, bandwidth: float) -> None:
        self.bandwidth = float(bandwidth)
        super().__init__(name=f"upi[{socket_a}<->{socket_b}]")

    def capacity(self, load: ResourceLoad) -> float:
        """The link bandwidth, whatever the load (an override rather than
        a ``capacity_fn``: a bound method stored on the link would make
        every link a reference cycle)."""
        bandwidth = self.bandwidth
        if not bandwidth >= 0:  # negative or NaN
            raise SimulationError(
                f"capacity model for {self.name!r} returned invalid value {bandwidth}"
            )
        return bandwidth

    def share(self, load: ResourceLoad, flow: Flow) -> float:
        """Processor sharing of the link: bit-identical to the inherited
        policy (no per-thread cap) without its call chain."""
        bandwidth = self.bandwidth
        if not bandwidth >= 0:  # negative or NaN: capacity() raises
            self.capacity(load)
        # ``n_total`` folded as its properties fold it, without the calls.
        n = (load.n_read_local + load.n_read_remote) + (
            load.n_write_local + load.n_write_remote
        )
        return bandwidth / (n if n > 1.0 else 1.0)
