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

``share()`` runs once per share group per solver iteration, so the resource
inlines that composition: the calibration's constants and calibration-only
subexpressions are bound at construction, and the factors that cannot move
within a solve (the mix penalties, which read only raw counts and pollers,
and the congestion factor, which reads only the EWMA) are memoized on
exactly what they read.  Every operation keeps the library's operands and
order, so the result is bit-identical to the composition; the test suite
keeps the composition as the oracle and compares in ``float.hex()``.

:class:`OptaneDevice` wraps the resource with capacity accounting so the
storage layer can allocate/free channel space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, log
from typing import TYPE_CHECKING, Dict

from repro.errors import StorageError
from repro.pmem.bandwidth import (
    mix_read_penalty,
    mix_write_penalty,
    sustained_congestion_factor,
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
        # The share kernel: calibration constants and calibration-only
        # subexpressions, bound once (the calibration is frozen) ...
        "_read_peak",
        "_read_scale",
        "_write_peak",
        "_write_scale",
        "_write_peak_threads",
        "_write_decay",
        "_size_effects",
        "_read_size_half",
        "_write_size_half",
        "_contention_threads",
        "_contention_bytes",
        "_contention_factor",
        "_remote_penalty",
        "_remote_read_slope",
        "_collapse_n0",
        "_collapse_exp",
        "_knee",
        "_knee_width",
        "_knee_duty_factor",
        "_floor",
        "_floor_gap",
        "_small_access_bytes",
        "_stripe_bytes",
        "_log_small_access",
        "_log_blend_span",
        "_remote_write_thread_cap",
        # ... and the factors that stay fixed within a solve, memoized on
        # exactly what they read.
        "_read_penalties",
        "_write_penalties",
        "_congestion_ewma",
        "_congestion",
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
        self._read_peak = cal.local_read_peak
        self._read_scale = cal.read_ramp_scale
        self._write_peak = cal.local_write_peak
        self._write_scale = cal.write_ramp_scale
        self._write_peak_threads = cal.write_peak_threads
        self._write_decay = cal.write_decay
        self._size_effects = cal.enable_size_effects
        self._read_size_half = cal.read_size_half
        self._write_size_half = cal.write_size_half
        self._contention_threads = cal.dimm_contention_threads
        self._contention_bytes = cal.interleave_chunk
        self._contention_factor = cal.dimm_contention_factor
        self._remote_penalty = cal.enable_remote_penalty
        self._remote_read_slope = cal.remote_read_slope
        self._collapse_n0 = cal.remote_write_collapse_n0
        self._collapse_exp = cal.remote_write_collapse_exp
        self._knee = cal.remote_write_knee
        self._knee_width = cal.remote_write_knee_width
        self._knee_duty_factor = cal.remote_write_knee_duty_factor
        self._floor = cal.remote_write_floor
        self._floor_gap = 1.0 - cal.remote_write_floor
        self._small_access_bytes = cal.remote_small_access_bytes
        self._stripe_bytes = float(cal.stripe_bytes)
        self._log_small_access = log(cal.remote_small_access_bytes)
        self._log_blend_span = log(float(cal.stripe_bytes)) - log(
            cal.remote_small_access_bytes
        )
        self._remote_write_thread_cap = cal.remote_write_thread_cap
        #: :func:`mix_read_penalty` by raw writer count.
        self._read_penalties: Dict[int, float] = {}
        #: :func:`mix_write_penalty` by (raw readers local/remote, pollers
        #: local/remote, remote writer).
        self._write_penalties: Dict[tuple, float] = {}
        #: :func:`sustained_congestion_factor` of the EWMA it was last
        #: evaluated at (the EWMA only moves in :meth:`observe`).
        self._congestion_ewma = 0.0
        self._congestion = sustained_congestion_factor(cal, 0.0)

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
            alpha = 1.0 - exp(-dt / self.cal.remote_write_congestion_tau)
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
        # :func:`read_bandwidth_total` x :func:`mix_read_penalty` x
        # :func:`access_efficiency` (x :func:`remote_read_factor`) / n,
        # inlined with the library's operands in the library's order, so
        # every result is bit-identical to the composition.  ``max``/``min``
        # are spelled as the comparisons the builtins make (NaN included).
        n = load.n_read_local + load.n_read_remote
        # While this flow is being served at least one reader is on the
        # device, so instantaneous read concurrency is never below 1.
        n_inst = n if n > 1.0 else 1.0
        total = self._read_peak * (1.0 - exp(-n_inst / self._read_scale))
        # Interference keys on raw opposing threads: sparse ops from
        # software-bound writers still disrupt the XPBuffer.
        raw_writers = load.raw_write_local + load.raw_write_remote
        penalty = self._read_penalties.get(raw_writers)
        if penalty is None:
            penalty = mix_read_penalty(self.cal, float(raw_writers))
            self._read_penalties[raw_writers] = penalty
        total *= penalty
        op = load.read_op_bytes
        if self._size_effects and not op <= 0:
            eff = op / (op + self._read_size_half)
            if (
                load.raw_read_local + load.raw_read_remote >= self._contention_threads
                and op <= self._contention_bytes
            ):
                eff *= self._contention_factor
            total *= eff
        if remote and self._remote_penalty:
            far = load.n_read_remote
            total *= 1.0 / (1.0 + self._remote_read_slope * (far if far > 1.0 else 1.0))
        return total / n_inst

    def _write_share(self, load: ResourceLoad, remote: bool) -> float:
        # :func:`write_bandwidth_total` x :func:`mix_write_penalty` x
        # :func:`access_efficiency` (x :func:`remote_write_factor` x
        # :func:`sustained_congestion_factor`, capped) / n, inlined like
        # :meth:`_read_share`.
        n = load.n_write_local + load.n_write_remote
        n_inst = n if n > 1.0 else 1.0
        over = n_inst - self._write_peak_threads
        total = (
            self._write_peak
            * (1.0 - exp(-n_inst / self._write_scale))
            / (1.0 + self._write_decay * (over if over > 0.0 else 0.0))
        )
        # Raw active readers plus weighted pollers interfere with writes.
        key = (
            load.raw_read_local,
            load.raw_read_remote,
            self._pollers_local,
            self._pollers_remote,
            remote,
        )
        penalty = self._write_penalties.get(key)
        if penalty is None:
            penalty = self._write_penalties[key] = self._mix_write_penalty(*key)
        total *= penalty
        op = load.write_op_bytes
        if self._size_effects and not op <= 0:
            eff = op / (op + self._write_size_half)
            if (
                load.raw_write_local + load.raw_write_remote >= self._contention_threads
                and op <= self._contention_bytes
            ):
                eff *= self._contention_factor
            total *= eff
        if not remote:
            return total / n_inst
        if self._remote_penalty:
            # The knee keys on the effective remote stream count: each
            # thread is a write-combining / coherence stream, but only
            # counts while it streams a meaningful fraction of the time.
            raw = float(load.raw_write_remote)
            streams = self._knee_duty_factor * load.n_write_remote
            if not streams < raw:
                streams = raw
            if not streams > 1.0:
                streams = 1.0
            # Only the granularity regime(s) the factor returns are evaluated.
            if op <= self._small_access_bytes:
                total *= self._small_remote_write_factor(streams)
            elif op >= self._stripe_bytes:
                total *= self._streaming_remote_write_factor(streams)
            else:
                # Log-linear interpolation between the two regimes.
                small = self._small_remote_write_factor(streams)
                streaming = self._streaming_remote_write_factor(streams)
                weight = (log(op) - self._log_small_access) / self._log_blend_span
                total *= small + weight * (streaming - small)
            # Sustained congestion: the EWMA blends the instantaneous
            # occupancy with history, so a brand-new burst on a cold link
            # is cheap while a steady stream pays in full.
            ewma = self._remote_write_ewma
            if ewma != self._congestion_ewma:
                self._congestion_ewma = ewma
                self._congestion = sustained_congestion_factor(self.cal, ewma)
            total *= self._congestion
        # A single remote writer cannot match a local one even on an
        # idle link (extra hop, RFO round trips).
        rate = total / n_inst
        cap = self._remote_write_thread_cap
        return cap if cap < rate else rate

    def _small_remote_write_factor(self, streams: float) -> float:
        """:func:`repro.pmem.bandwidth._small_remote_write_factor`."""
        if streams <= self._collapse_n0:
            return 1.0
        return (self._collapse_n0 / streams) ** self._collapse_exp

    def _streaming_remote_write_factor(self, streams: float) -> float:
        """:func:`repro.pmem.bandwidth._streaming_remote_write_factor`."""
        exponent = (streams - self._knee) / self._knee_width
        # Clamp to keep exp() well behaved for extreme inputs.
        if not exponent > -60.0:
            exponent = -60.0
        if not exponent < 60.0:
            exponent = 60.0
        return self._floor + self._floor_gap / (1.0 + exp(exponent))

    def _mix_write_penalty(
        self,
        raw_local: int,
        raw_remote: int,
        polls_local: int,
        polls_remote: int,
        remote: bool,
    ) -> float:
        """:func:`mix_write_penalty` for raw readers plus weighted pollers."""
        w = self.cal.poll_interference_weight
        readers_local = raw_local + w * polls_local
        readers_remote = raw_remote + w * polls_remote
        readers = readers_local + readers_remote
        remote_reader_fraction = readers_remote / readers if readers > 0 else 0.0
        return mix_write_penalty(
            self.cal, readers, remote_reader_fraction, writer_remote=remote
        )


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
