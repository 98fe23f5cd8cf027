"""Calibration constants for the first-generation Optane PMEM model.

Every constant is annotated with its source:

* **[paper]** — the reproduced paper itself (§II-B "Optane PMEM").
* **[FAST20]** — Yang et al., *An Empirical Guide to the Behavior and Use of
  Scalable Persistent Memory*, FAST 2020 (the paper's ref [2]).
* **[IZR19]** — Izraelevitz et al., *Basic Performance Measurements of the
  Intel Optane DC Persistent Memory Module*, arXiv:1903.05714 (ref [14]).
* **[MEMSYS19]** — Peng et al., *System Evaluation of the Intel Optane
  Byte-addressable NVM*, MEMSYS 2019 (ref [3]).
* **[fit]** — a free parameter of our fluid model, fitted so the simulated
  workflow suite reproduces the paper's configuration rankings and reported
  gaps (see EXPERIMENTS.md).  These have no hardware meaning beyond the fit.

The dataclass is frozen: derive variants with :meth:`OptaneCalibration.replace`.
Ablation toggles (``enable_*``) let benchmarks switch individual model terms
off to show which paper observation each term is responsible for.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import CalibrationError
from repro.units import GB, KiB, NANOSECOND


@dataclass(frozen=True)
class OptaneCalibration:
    """All constants of the Optane device model (units: bytes, seconds)."""

    # ------------------------------------------------------------------
    # Aggregate bandwidth ceilings.  [paper §II-B / IZR19]
    # ------------------------------------------------------------------
    #: Maximum local read bandwidth in interleaved mode (39.4 GB/s). [paper]
    local_read_peak: float = 39.4 * GB
    #: Maximum local write bandwidth in interleaved mode (13.9 GB/s). [paper]
    local_write_peak: float = 13.9 * GB

    # ------------------------------------------------------------------
    # Concurrency scaling.  The concave ramps are parameterized as
    # ``peak * (1 - exp(-n / scale))`` which matches the shape of the
    # scaling plots in [IZR19] (read bandwidth scales up to ~17 concurrent
    # ops, write scaling stops around 4 [paper §II-B]).
    # ------------------------------------------------------------------
    #: e-folding constant of the read ramp; yields ~94 % of peak at 17
    #: threads and a single-thread read rate of ~6 GB/s. [IZR19, fit]
    read_ramp_scale: float = 6.0
    #: e-folding constant of the write ramp; ~90 % of peak at 4 threads and
    #: a single-thread ntstore rate of ~6.2 GB/s. [IZR19, fit]
    write_ramp_scale: float = 1.7
    #: Gentle decline of aggregate write bandwidth beyond the 4-thread peak
    #: (contention in the WPQ / XPBuffer): capacity is multiplied by
    #: ``1 / (1 + write_decay * max(0, n - 4))``. [FAST20, fit]
    write_decay: float = 0.010
    #: Thread count at which write bandwidth peaks. [paper §II-B]
    write_peak_threads: float = 4.0

    # ------------------------------------------------------------------
    # Remote (cross-NUMA) degradation.  [paper §II-B / MEMSYS19]
    #
    # The degradation depends strongly on access granularity:
    #
    # * *small* accesses (at or below the 4 KB interleave chunk, e.g. raw
    #   store benchmarks or block-granular filesystems) collapse as
    #   ``(n0 / n) ** p`` — the paper's measured 15x drop at 24 concurrent
    #   writes, "under 1 GB/s" beyond a few ops;
    # * *streaming* accesses (large non-temporal, write-combined transfers,
    #   e.g. NVStream's coalesced log appends or multi-MB checkpoints)
    #   degrade mildly until the UPI / coherence machinery saturates around
    #   ~18 concurrent writers, then step down to a floor — a logistic knee
    #   fitted to the workflow-level gaps the paper reports (S-LocR optimal
    #   for GTC at 16 ranks but S-LocW at 24, §VI-A/B).
    # ------------------------------------------------------------------
    #: Small-access remote write collapse: ``(n0 / n) ** p``. [paper, fit]
    remote_write_collapse_n0: float = 2.0
    remote_write_collapse_exp: float = 1.09
    #: Streaming remote write knee: factor
    #: ``floor + (1 - floor) / (1 + exp((n - knee) / width))`` of the
    #: effective remote *stream* count ``min(raw_threads,
    #: knee_duty_factor * duty_weighted_threads)`` — a thread only counts
    #: toward coherence-path saturation if it actively streams a meaningful
    #: fraction of the time. [fit]
    remote_write_knee: float = 18.5
    remote_write_knee_width: float = 1.2
    #: Multiplier on the duty-weighted count in the knee's stream count. [fit]
    remote_write_knee_duty_factor: float = 3.0
    remote_write_floor: float = 0.70
    #: Sustained congestion: a continuous remote write stream additionally
    #: degrades as the UPI/coherence queues build up.  The device keeps an
    #: exponentially weighted moving average ``u`` of remote-write occupancy
    #: and applies ``1 / (1 + (u / scale) ** exp)``.  Bursty writers (GTC's
    #: checkpoint every couple of seconds) keep ``u`` low and stay fast at
    #: <= 16 ranks; continuous streams (the 64 MB microbenchmark) pay in
    #: full — the distinction behind S-LocR being viable for GTC at 16
    #: ranks while S-LocW wins the 64 MB workflow everywhere. [fit]
    remote_write_congestion_scale: float = 14.0
    remote_write_congestion_exp: float = 2.0
    #: Time constant (seconds) of the congestion EWMA. [fit]
    remote_write_congestion_tau: float = 2.0
    #: Single-thread remote write rate cap: one remote writer cannot match
    #: a local one even with the link idle (extra hop, RFO round trips).
    #: [FAST20, fit]
    remote_write_thread_cap: float = 3.7 * GB
    #: Device access size (bytes) below which the small-access collapse
    #: fully applies; the streaming knee fully applies above one interleave
    #: stripe, log-linear blend between. [fit]
    remote_small_access_bytes: float = 4.0 * KiB
    #: Remote reads degrade with concurrency: ``1 / (1 + slope * n)``.
    #: The paper quotes a 1.3x slowdown at 24 concurrent reads; we fit a
    #: somewhat steeper slope (1.5x at 24) because the workflow-level
    #: placement orderings (Figs. 6b/8b vs 8c/9b) require remote reads to
    #: hurt I/O-intensive readers noticeably more than sparse ones — see
    #: EXPERIMENTS.md for the documented deviation. [paper §II-B, fit]
    remote_read_slope: float = 0.022
    #: Aggregate UPI capacity between the two sockets (both directions
    #: pooled; includes coherence overhead). [MEMSYS19, fit]
    upi_bandwidth: float = 30.0 * GB

    # ------------------------------------------------------------------
    # Mixed read/write interference.  Concurrent reads and writes thrash
    # the 16 KB per-DIMM XPBuffer; each class's capacity is multiplied by
    # ``1 / (1 + gamma * s(n_other))`` with ``s(n) = n / (n + n_half)``.
    # [FAST20 §4.3, fit]
    # ------------------------------------------------------------------
    #: Read-capacity penalty from concurrent writers.  Optane reads are
    #: extremely sensitive to interleaved ntstores (even minority write
    #: ratios collapse read bandwidth via XPBuffer thrash). [FAST20, fit]
    mix_gamma_read: float = 6.0
    #: Write-capacity penalty from concurrent readers. [fit]
    mix_gamma_write: float = 1.6
    #: Extra write penalty when the interfering readers are *remote*: remote
    #: reads hold device/interconnect resources longer, creating the
    #: back-pressure described in §VI-A of the paper. [paper, fit]
    mix_remote_read_boost: float = 1.2
    #: Extra penalty on *remote* writes that face concurrent reads: the
    #: write-combined remote stream loses badly once the device's buffering
    #: is also serving reads. [fit]
    mix_remote_write_boost: float = 0.2
    #: Half-saturation of the quadratic interference saturation applied to
    #: *writes* facing readers: ``s(n) = n^2 / (n^2 + h^2)``.  The count
    #: used is the raw opposing thread count (plus weighted pollers), not
    #: the duty-weighted one: even a software-bound thread's sparse
    #: operations disrupt the device's internal buffering. [FAST20, fit]
    mix_half_saturation: float = 8.0
    #: Exponent of the write-side interference saturation. [fit]
    mix_write_sat_exponent: float = 2.0
    #: The read-side crush from concurrent writers has a sharper onset: it
    #: only materializes once the writer population approaches write-port
    #: saturation (quartic saturation with this half point). [FAST20, fit]
    mix_read_half_saturation: float = 12.0
    mix_read_sat_exponent: float = 4.0
    #: Interference contribution of a *blocked* reader busy-polling the
    #: channel's version metadata in PMEM (userspace streaming stacks spin
    #: on version counters), as a fraction of an active reader. [fit]
    poll_interference_weight: float = 0.3

    # ------------------------------------------------------------------
    # Access granularity.  [paper §II-B / FAST20]
    # ------------------------------------------------------------------
    #: Interleaving chunk: 4 KB contiguous per DIMM. [paper]
    interleave_chunk: int = 4 * KiB
    #: Number of interleaved DIMMs per socket. [paper]
    dimms_per_socket: int = 6
    #: XPLine (internal 3D-XPoint access granule): 256 B. [FAST20]
    xpline_bytes: int = 256
    #: Reads smaller than the device prefetch window lose efficiency:
    #: ``eff = op / (op + read_size_half)``. [FAST20, fit]
    read_size_half: float = 512.0
    #: Writes below one XPLine pay write amplification; above, efficiency
    #: ``eff = op / (op + write_size_half)``. [FAST20, fit]
    write_size_half: float = 256.0
    #: Extra de-rating when >= 6 threads issue accesses at (or below) the
    #: 4 KB interleave granularity: non-uniform stripe distribution makes
    #: threads contend for individual DIMMs. [paper §II-B, FAST20]
    dimm_contention_factor: float = 0.85
    #: Thread count at which DIMM contention for small accesses kicks in.
    #: [paper §II-B]
    dimm_contention_threads: float = 6.0

    # ------------------------------------------------------------------
    # Idle access latency.  [paper §II-B]
    # ------------------------------------------------------------------
    #: Idle local read latency (169 ns). [paper]
    read_latency_local: float = 169 * NANOSECOND
    #: Idle local write latency (90 ns — absorbed by the iMC WPQ). [paper]
    write_latency_local: float = 90 * NANOSECOND
    #: Idle remote read latency (~1.8x local). [FAST20]
    read_latency_remote: float = 305 * NANOSECOND
    #: Idle remote write latency (writes complete into the WPQ, so the
    #: remote penalty is smaller). [FAST20]
    write_latency_remote: float = 150 * NANOSECOND

    # ------------------------------------------------------------------
    # Ablation toggles (model terms, not hardware).
    # ------------------------------------------------------------------
    #: Apply the mixed read/write interference penalties.
    enable_mix_interference: bool = True
    #: Apply the remote collapse/degradation factors.
    enable_remote_penalty: bool = True
    #: Apply access-granularity efficiency and DIMM-contention factors.
    enable_size_effects: bool = True

    # ------------------------------------------------------------------
    @functools.cached_property
    def sha256(self) -> str:
        """SHA-256 of the table's sorted field/value-``repr`` JSON.

        Computed once per object (the table is frozen) and kept in the
        instance, never memoised on equality: ``4 == 4.0`` and
        ``0.0 == False``, yet their tables print, and so hash, differently.
        """
        payload = json.dumps(
            {f.name: repr(getattr(self, f.name)) for f in dataclasses.fields(self)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def validate(self) -> None:
        """Sanity-check internal consistency; raises :class:`CalibrationError`."""
        # Every ordering check below is false for NaN, so reject non-finite
        # numbers first (the ``enable_*`` toggles are bools, not numbers).
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if not isinstance(value, bool) and not math.isfinite(value):
                raise CalibrationError(f"{spec.name} must be finite, got {value}")
        if not (0 < self.local_write_peak <= self.local_read_peak):
            raise CalibrationError(
                "expected 0 < write peak <= read peak (Optane is read-favoured), got "
                f"write={self.local_write_peak}, read={self.local_read_peak}"
            )
        for name in (
            "read_ramp_scale",
            "write_ramp_scale",
            "write_peak_threads",
            "remote_write_collapse_n0",
            "remote_write_collapse_exp",
            "remote_write_knee",
            "remote_write_knee_width",
            "remote_write_knee_duty_factor",
            "remote_write_congestion_scale",
            "remote_write_congestion_exp",
            "remote_write_congestion_tau",
            "remote_write_thread_cap",
            "remote_small_access_bytes",
            "upi_bandwidth",
            "mix_half_saturation",
            "mix_read_half_saturation",
            "mix_read_sat_exponent",
            "mix_write_sat_exponent",
            "read_size_half",
            "write_size_half",
        ):
            if getattr(self, name) <= 0:
                raise CalibrationError(f"{name} must be positive")
        for name in (
            "write_decay",
            "remote_read_slope",
            "mix_gamma_read",
            "mix_gamma_write",
            "mix_remote_read_boost",
            "mix_remote_write_boost",
            "poll_interference_weight",
        ):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} must be non-negative")
        if not (0 < self.remote_write_floor <= 1):
            raise CalibrationError("remote_write_floor must be in (0, 1]")
        if not (0 < self.dimm_contention_factor <= 1):
            raise CalibrationError("dimm_contention_factor must be in (0, 1]")
        if self.interleave_chunk <= 0 or self.dimms_per_socket <= 0:
            raise CalibrationError("interleave geometry must be positive")
        for name in (
            "read_latency_local",
            "write_latency_local",
            "read_latency_remote",
            "write_latency_remote",
        ):
            if getattr(self, name) < 0:
                raise CalibrationError(f"{name} must be non-negative")
        if self.read_latency_remote < self.read_latency_local:
            raise CalibrationError("remote read latency must be >= local")
        if self.write_latency_remote < self.write_latency_local:
            raise CalibrationError("remote write latency must be >= local")

    def replace(self, **changes: object) -> "OptaneCalibration":
        """Return a copy with *changes* applied (validated)."""
        new = dataclasses.replace(self, **changes)
        new.validate()
        return new

    @property
    def stripe_bytes(self) -> int:
        """One full interleave stripe: chunk * DIMM count (24 KB). [paper]"""
        return self.interleave_chunk * self.dimms_per_socket

    def single_thread_read(self) -> float:
        """Single-thread local read bandwidth implied by the ramp."""
        return self.local_read_peak * (1.0 - math.exp(-1.0 / self.read_ramp_scale))

    def single_thread_write(self) -> float:
        """Single-thread local write bandwidth implied by the ramp."""
        return self.local_write_peak * (1.0 - math.exp(-1.0 / self.write_ramp_scale))


#: The default first-generation Optane calibration used by the experiments.
DEFAULT_CALIBRATION = OptaneCalibration()
DEFAULT_CALIBRATION.validate()


def calibration_from_settings(settings: Sequence[str]) -> OptaneCalibration:
    """Apply ``field=value`` overrides (the CLIs' ``--cal-set``) to the default.

    Raises :class:`~repro.errors.CalibrationError` for a malformed setting,
    an unknown field, a value that is not a number, or a calibration that
    :meth:`OptaneCalibration.validate` rejects (NaN and ±inf included).
    """
    if not settings:
        return DEFAULT_CALIBRATION
    known = {spec.name for spec in dataclasses.fields(OptaneCalibration)}
    changes = {}
    for setting in settings:
        name, _, value = setting.partition("=")
        if not name or not value:
            raise CalibrationError(f"wants field=value, got {setting!r}")
        if name not in known:
            raise CalibrationError(f"unknown calibration field {name!r}")
        try:
            changes[name] = float(value)
        except ValueError:
            raise CalibrationError(f"value {value!r} is not a number") from None
    return DEFAULT_CALIBRATION.replace(**changes)
