"""The Optane device as a flow-network resource.

:class:`OptaneDeviceResource` is the single shared resource through which
every PMEM transfer targeting one socket's interleaved DIMM set passes.  It
overrides :meth:`~repro.sim.flow.CapacityResource.share` to hand each flow a
kind-, locality-, and granularity-specific instantaneous rate, composing the
curves in :mod:`repro.pmem.bandwidth`:

* reads share the read-capacity ramp; writes share the write ramp;
* concurrent reads and writes mutually interfere (XPBuffer thrash), with
  extra back-pressure on writes when the readers are remote;
* remote flows additionally pay the cross-NUMA degradation factors;
* small accesses pay granularity and DIMM-contention de-ratings.

:class:`OptaneDevice` wraps the resource with capacity accounting so the
storage layer can allocate/free channel space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import StorageError
import math

from repro.pmem.bandwidth import (
    access_efficiency,
    mix_read_penalty,
    mix_write_penalty,
    read_bandwidth_total,
    remote_read_factor,
    remote_write_factor,
    sustained_congestion_factor,
    write_bandwidth_total,
)
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.pmem.interleave import InterleaveSet
from repro.sim.flow import CapacityResource, ResourceLoad
from repro.units import GiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.flow import Flow


class OptaneDeviceResource(CapacityResource):
    """Flow-network resource implementing the Optane sharing policy.

    Stateful: the resource tracks an exponentially weighted moving average
    of its remote-write occupancy (updated by the flow network through
    :meth:`observe`).  Sustained remote write streams congest the
    UPI/coherence path far beyond what a transient checkpoint burst causes;
    the EWMA is what distinguishes the two.
    """

    __slots__ = (
        "cal",
        "_remote_write_ewma",
        "_last_observed",
        "_held_occupancy",
        "_pollers_local",
        "_pollers_remote",
    )

    #: :meth:`share` dispatches purely on the flow's kind and locality —
    #: every other input comes from the :class:`ResourceLoad` — so the
    #: solver may evaluate one share per (kind, remote) group per resource
    #: instead of one per equivalence class (see
    #: :attr:`CapacityResource.share_signature_fields`).
    share_signature_fields = ("kind", "remote")

    def __init__(self, name: str, cal: OptaneCalibration) -> None:
        super().__init__(name)
        cal.validate()
        self.cal = cal
        self._remote_write_ewma = 0.0
        self._last_observed = 0.0
        self._held_occupancy = 0.0
        self._pollers_local = 0
        self._pollers_remote = 0

    # ------------------------------------------------------------------
    @property
    def remote_write_ewma(self) -> float:
        """Current sustained remote-write occupancy estimate."""
        return self._remote_write_ewma

    def observe(self, now: float, load: ResourceLoad) -> None:
        """Update the congestion EWMA and latch the new occupancy.

        Called by the flow network whenever rates are recomputed.  The EWMA
        first relaxes toward the occupancy that *held* since the previous
        observation (with time constant ``remote_write_congestion_tau``),
        then latches the new instantaneous duty-weighted remote-write count
        for the next interval — so an idle gap genuinely cools the link
        before a fresh burst arrives.
        """
        dt = now - self._last_observed
        self._last_observed = now
        if dt > 0:
            alpha = 1.0 - math.exp(-dt / self.cal.remote_write_congestion_tau)
            self._remote_write_ewma += alpha * (
                self._held_occupancy - self._remote_write_ewma
            )
        self._held_occupancy = load.congestion_write_remote

    def share_state_token(self, kind: str, remote: bool) -> object:
        """Mutable state :meth:`share` reads, for the solver's memo key.

        ``_held_occupancy``/``_last_observed`` only feed *future* EWMA
        updates via :meth:`observe` and are deliberately excluded — they
        don't change what ``share`` returns now.  ``_read_share`` reads no
        mutable device state at all, so read tokens are empty — a
        read-only component survives poller churn and EWMA decay without
        re-solving.  ``_write_share`` reads the poller
        counts (mix interference) for every write and additionally the
        congestion EWMA for remote writes.
        """
        if kind == "read":
            return ()
        if remote:
            return (
                self._remote_write_ewma,
                self._pollers_local,
                self._pollers_remote,
            )
        return (self._pollers_local, self._pollers_remote)

    # ------------------------------------------------------------------
    # Pollers: readers blocked on an unpublished version busy-poll the
    # channel's metadata in this device's PMEM.  They contribute to mix
    # interference (weighted) without consuming bulk bandwidth.
    # ------------------------------------------------------------------
    def add_poller(self, remote: bool) -> None:
        """Register a blocked reader polling this device's metadata."""
        if remote:
            self._pollers_remote += 1
        else:
            self._pollers_local += 1

    def remove_poller(self, remote: bool) -> None:
        """Unregister a poller (raises if none registered)."""
        if remote:
            if self._pollers_remote <= 0:
                raise StorageError(f"{self.name}: no remote poller to remove")
            self._pollers_remote -= 1
        else:
            if self._pollers_local <= 0:
                raise StorageError(f"{self.name}: no local poller to remove")
            self._pollers_local -= 1

    @property
    def poller_count(self) -> int:
        return self._pollers_local + self._pollers_remote

    # ------------------------------------------------------------------
    def share(self, load: ResourceLoad, flow: "Flow") -> float:
        """Instantaneous rate for *flow* under the current device load."""
        if flow.kind == "read":
            return self._read_share(load, flow.remote)
        return self._write_share(load, flow.remote)

    def _read_share(self, load: ResourceLoad, remote: bool) -> float:
        cal = self.cal
        # While this flow is being served at least one reader is on the
        # device, so instantaneous read concurrency is never below 1.
        n_inst = max(1.0, load.n_reads)
        total = read_bandwidth_total(cal, n_inst)
        # Interference keys on raw opposing threads: sparse ops from
        # software-bound writers still disrupt the XPBuffer.
        raw_writers = load.raw_write_local + load.raw_write_remote
        total *= mix_read_penalty(cal, float(raw_writers))
        raw_readers = load.raw_read_local + load.raw_read_remote
        total *= access_efficiency(cal, "read", load.read_op_bytes, raw_readers)
        if remote:
            total *= remote_read_factor(cal, max(1.0, load.n_read_remote))
        return total / n_inst

    def _write_share(self, load: ResourceLoad, remote: bool) -> float:
        cal = self.cal
        n_inst = max(1.0, load.n_writes)
        total = write_bandwidth_total(cal, n_inst)
        # Raw active readers plus weighted pollers interfere with writes.
        w = cal.poll_interference_weight
        readers_local = load.raw_read_local + w * self._pollers_local
        readers_remote = load.raw_read_remote + w * self._pollers_remote
        readers = readers_local + readers_remote
        remote_reader_fraction = readers_remote / readers if readers > 0 else 0.0
        total *= mix_write_penalty(
            cal, readers, remote_reader_fraction, writer_remote=remote
        )
        raw_writers = load.raw_write_local + load.raw_write_remote
        total *= access_efficiency(cal, "write", load.write_op_bytes, raw_writers)
        if remote:
            # The knee keys on the effective remote stream count: each
            # thread is a write-combining / coherence stream, but only
            # counts while it streams a meaningful fraction of the time.
            streams = min(
                float(load.raw_write_remote),
                cal.remote_write_knee_duty_factor * load.n_write_remote,
            )
            total *= remote_write_factor(cal, max(1.0, streams), load.write_op_bytes)
            # Sustained congestion: the EWMA blends the instantaneous
            # occupancy with history, so a brand-new burst on a cold link
            # is cheap while a steady stream pays in full.
            total *= sustained_congestion_factor(cal, self._remote_write_ewma)
            # A single remote writer cannot match a local one even on an
            # idle link (extra hop, RFO round trips).
            return min(total / n_inst, cal.remote_write_thread_cap)
        return total / n_inst


@dataclass
class OptaneDevice:
    """One socket's interleaved Optane DIMM set, with space accounting.

    Attributes
    ----------
    socket_id:
        Socket the DIMMs are attached to.
    capacity_bytes:
        Total App-Direct capacity (6 x 512 GB on the paper's testbed).
    cal:
        The device calibration (shared across sockets in practice).
    """

    socket_id: int
    capacity_bytes: int = 6 * 512 * GiB
    cal: OptaneCalibration = field(default_factory=lambda: DEFAULT_CALIBRATION)
    resource: OptaneDeviceResource = field(init=False)
    interleave: InterleaveSet = field(init=False)
    _allocated: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.resource = OptaneDeviceResource(f"pmem[{self.socket_id}]", self.cal)
        self.interleave = InterleaveSet(
            chunk_bytes=self.cal.interleave_chunk, ndimms=self.cal.dimms_per_socket
        )

    # ------------------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._allocated

    def allocate(self, nbytes: int) -> None:
        """Reserve *nbytes* of App-Direct space for a channel or log."""
        if nbytes < 0:
            raise StorageError(f"cannot allocate negative bytes: {nbytes}")
        if self._allocated + nbytes > self.capacity_bytes:
            raise StorageError(
                f"PMEM on socket {self.socket_id} exhausted: requested "
                f"{nbytes} with {self.free_bytes} free"
            )
        self._allocated += nbytes

    def free(self, nbytes: int) -> None:
        """Release previously allocated space."""
        if nbytes < 0 or nbytes > self._allocated:
            raise StorageError(
                f"invalid free of {nbytes} bytes (allocated={self._allocated})"
            )
        self._allocated -= nbytes
