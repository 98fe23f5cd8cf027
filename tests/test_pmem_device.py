"""Unit tests for the Optane device resource and space accounting."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
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
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDevice, OptaneDeviceResource
from repro.sim.flow import Flow, ResourceLoad
from repro.units import GB, GiB, KiB, MiB

CAL = DEFAULT_CALIBRATION


def device_resource():
    return OptaneDeviceResource("pmem[test]", CAL)


def flow(kind="write", remote=False, op_bytes=64 * MiB, self_cap=1e18):
    return Flow(
        nbytes=1.0,
        kind=kind,
        remote=remote,
        resources=(),
        self_cap=self_cap,
        op_bytes=op_bytes,
    )


def load(**kw):
    defaults = dict(read_op_bytes=64 * MiB, write_op_bytes=64 * MiB)
    defaults.update(kw)
    return ResourceLoad(**defaults)


def oracle_share(device, load, flow):
    """``share()`` as the plain :mod:`repro.pmem.bandwidth` composition.

    The device inlines this composition with calibration-bound constants
    and memoized solve-invariant factors; it must agree in every bit.
    """
    cal = device.cal
    if flow.kind == "read":
        n_inst = max(1.0, load.n_reads)
        total = read_bandwidth_total(cal, n_inst)
        raw_writers = load.raw_write_local + load.raw_write_remote
        total *= mix_read_penalty(cal, float(raw_writers))
        raw_readers = load.raw_read_local + load.raw_read_remote
        total *= access_efficiency(cal, "read", load.read_op_bytes, raw_readers)
        if flow.remote:
            total *= remote_read_factor(cal, max(1.0, load.n_read_remote))
        return total / n_inst
    n_inst = max(1.0, load.n_writes)
    total = write_bandwidth_total(cal, n_inst)
    w = cal.poll_interference_weight
    readers_local = load.raw_read_local + w * device._pollers_local
    readers_remote = load.raw_read_remote + w * device._pollers_remote
    readers = readers_local + readers_remote
    remote_reader_fraction = readers_remote / readers if readers > 0 else 0.0
    total *= mix_write_penalty(
        cal, readers, remote_reader_fraction, writer_remote=flow.remote
    )
    raw_writers = load.raw_write_local + load.raw_write_remote
    total *= access_efficiency(cal, "write", load.write_op_bytes, raw_writers)
    if flow.remote:
        streams = min(
            float(load.raw_write_remote),
            cal.remote_write_knee_duty_factor * load.n_write_remote,
        )
        total *= remote_write_factor(cal, max(1.0, streams), load.write_op_bytes)
        total *= sustained_congestion_factor(cal, device.remote_write_ewma)
        return min(total / n_inst, cal.remote_write_thread_cap)
    return total / n_inst


#: The default calibration, each ablation toggle off, and a refit.
KERNEL_CALIBRATIONS = (
    CAL,
    CAL.replace(enable_mix_interference=False),
    CAL.replace(enable_remote_penalty=False),
    CAL.replace(enable_size_effects=False),
    CAL.replace(
        remote_small_access_bytes=2 * KiB,
        remote_write_knee=9.0,
        remote_write_floor=0.5,
        mix_half_saturation=5.0,
        mix_read_sat_exponent=3.0,
        local_write_peak=11.0 * GB,
    ),
)

#: Device access sizes below, at and above the small-access (4 KiB) and
#: stripe (24 KiB) boundaries, plus a large streaming size.
BOUNDARY_OP_BYTES = (
    64.0,
    4 * KiB - 1.0,
    4.0 * KiB,
    4 * KiB + 1.0,
    10 * KiB,
    24 * KiB - 1.0,
    24.0 * KiB,
    24 * KiB + 1.0,
    64.0 * MiB,
)


#: Any :class:`ResourceLoad` the solver can build, as its field dict.
LOAD_FIELDS = st.fixed_dictionaries(
    {
        "n_read_local": st.floats(0.0, 32.0),
        "n_read_remote": st.floats(0.0, 32.0),
        "n_write_local": st.floats(0.0, 32.0),
        "n_write_remote": st.floats(0.0, 32.0),
        "raw_read_local": st.integers(0, 24),
        "raw_read_remote": st.integers(0, 24),
        "raw_write_local": st.integers(0, 24),
        "raw_write_remote": st.integers(0, 24),
        "read_op_bytes": st.one_of(
            st.sampled_from(BOUNDARY_OP_BYTES), st.floats(1.0, 1e9)
        ),
        "write_op_bytes": st.one_of(
            st.sampled_from(BOUNDARY_OP_BYTES), st.floats(1.0, 1e9)
        ),
    }
)

#: Remote-write occupancy latched into the congestion EWMA (0: cold).
OCCUPANCY = st.one_of(st.just(0.0), st.floats(0.1, 40.0))


def heat(device, occupancy):
    """Move the congestion EWMA through :meth:`observe`: latch
    *occupancy*, then let one second of it pass (0 keeps a cold device
    at 0)."""
    now = device._last_observed
    device.observe(now + 1.0, ResourceLoad(congestion_write_remote=occupancy))
    device.observe(now + 2.0, ResourceLoad())


def assert_kernel_matches(device, load):
    for kind, remote in itertools.product(("read", "write"), (False, True)):
        probe = flow(kind, remote=remote)
        got = device.share(load, probe)
        want = oracle_share(device, load, probe)
        assert got.hex() == want.hex(), (kind, remote, load)


class TestShareKernel:
    """The inlined kernel is the curve library's composition, bit for bit."""

    @pytest.mark.parametrize("cal", KERNEL_CALIBRATIONS)
    def test_boundary_grid_matches_curves(self, cal):
        rng = random.Random(7)
        for op_bytes, pollers, occupancy in itertools.product(
            BOUNDARY_OP_BYTES, (0, 3), (0.0, 9.0)
        ):
            device = OptaneDeviceResource("pmem[grid]", cal)
            for i in range(pollers):
                device.add_poller(remote=i % 2 == 1)
            heat(device, occupancy)
            assert (device.remote_write_ewma > 0) == (occupancy > 0)
            load = ResourceLoad(
                n_read_local=rng.uniform(0.0, 12.0),
                n_read_remote=rng.uniform(0.0, 12.0),
                n_write_local=rng.uniform(0.0, 12.0),
                n_write_remote=rng.uniform(0.0, 24.0),
                raw_read_local=rng.randint(0, 12),
                raw_read_remote=rng.randint(0, 12),
                raw_write_local=rng.randint(0, 12),
                raw_write_remote=rng.randint(0, 24),
                read_op_bytes=op_bytes,
                write_op_bytes=op_bytes,
            )
            assert_kernel_matches(device, load)

    @given(
        cal=st.sampled_from(KERNEL_CALIBRATIONS),
        steps=st.lists(
            st.tuples(
                LOAD_FIELDS,
                st.integers(0, 6),  # local pollers
                st.integers(0, 6),  # remote pollers
                OCCUPANCY,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_curves_as_state_moves(self, cal, steps):
        """One device across several loads, poller counts and EWMAs: the
        memoized factors must follow every change of what they read."""
        device = OptaneDeviceResource("pmem[prop]", cal)
        held = {False: 0, True: 0}
        for fields, local, far, occupancy in steps:
            for remote, want in ((False, local), (True, far)):
                for _ in range(held[remote]):
                    device.remove_poller(remote=remote)
                for _ in range(want):
                    device.add_poller(remote=remote)
                held[remote] = want
            heat(device, occupancy)
            assert_kernel_matches(device, ResourceLoad(**fields))

    def test_replaced_calibration_gets_its_own_constants(self):
        """Constants and memos are per device: a device built from a
        ``.replace()``d calibration never sees another device's values."""
        load = ResourceLoad(
            n_read_local=3.0,
            raw_read_local=3,
            n_read_remote=2.0,
            raw_read_remote=2,
            n_write_remote=6.0,
            raw_write_remote=6,
            read_op_bytes=8 * KiB,
            write_op_bytes=8 * KiB,
        )
        base = OptaneDeviceResource("pmem[0]", CAL)
        assert_kernel_matches(base, load)
        refit = OptaneDeviceResource(
            "pmem[1]",
            CAL.replace(
                local_read_peak=30.0 * GB,
                local_write_peak=10.0 * GB,
                mix_gamma_read=3.0,
                mix_gamma_write=0.8,
                remote_write_knee=4.0,
                remote_read_slope=0.05,
            ),
        )
        assert_kernel_matches(refit, load)
        for kind, remote in itertools.product(("read", "write"), (False, True)):
            probe = flow(kind, remote=remote)
            assert refit.share(load, probe) != base.share(load, probe)


class TestShareMonotonicity:
    """More capacity never hurts at a fixed load: raising a peak
    bandwidth or the remote-write thread cap never lowers the share any
    flow gets (the capacity-monotonicity relation, DESIGN §5a)."""

    @given(
        field=st.sampled_from(
            ("local_read_peak", "local_write_peak", "remote_write_thread_cap")
        ),
        # Up to 2.5x keeps the write peak below the read peak, as
        # ``OptaneCalibration.validate()`` requires.
        factor=st.floats(1.0, 2.5),
        fields=LOAD_FIELDS,
        pollers=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        occupancy=OCCUPANCY,
    )
    @settings(max_examples=200, deadline=None)
    def test_raising_capacity_never_lowers_a_share(
        self, field, factor, fields, pollers, occupancy
    ):
        raised_cal = CAL.replace(**{field: getattr(CAL, field) * factor})
        devices = []
        for cal in (CAL, raised_cal):
            device = OptaneDeviceResource("pmem[mono]", cal)
            for remote, count in zip((False, True), pollers):
                for _ in range(count):
                    device.add_poller(remote=remote)
            heat(device, occupancy)
            devices.append(device)
        base, raised = devices
        load = ResourceLoad(**fields)
        for kind, remote in itertools.product(("read", "write"), (False, True)):
            probe = flow(kind, remote=remote)
            assert raised.share(load, probe) >= base.share(load, probe), (
                kind,
                remote,
            )


class TestShares:
    def test_solo_local_writer_gets_single_thread_rate(self):
        share = device_resource().share(
            load(n_write_local=1.0, raw_write_local=1), flow("write")
        )
        assert share == pytest.approx(CAL.single_thread_write(), rel=0.01)

    def test_solo_local_reader_gets_single_thread_rate(self):
        share = device_resource().share(
            load(n_read_local=1.0, raw_read_local=1), flow("read")
        )
        assert share == pytest.approx(CAL.single_thread_read(), rel=0.01)

    def test_writers_share_capacity(self):
        busy = load(n_write_local=8.0, raw_write_local=8)
        share = device_resource().share(busy, flow("write"))
        assert share * 8 <= CAL.local_write_peak

    def test_reads_crushed_by_many_writers(self):
        quiet = device_resource().share(
            load(n_read_local=8.0, raw_read_local=8), flow("read")
        )
        mixed = device_resource().share(
            load(
                n_read_local=8.0,
                raw_read_local=8,
                n_write_local=24.0,
                raw_write_local=24,
            ),
            flow("read"),
        )
        assert mixed < 0.4 * quiet

    def test_remote_write_pays_thread_cap(self):
        share = device_resource().share(
            load(n_write_remote=1.0, raw_write_remote=1), flow("write", remote=True)
        )
        assert share <= CAL.remote_write_thread_cap

    def test_remote_write_knee_at_24_raw_streams(self):
        local = device_resource().share(
            load(n_write_local=24.0, raw_write_local=24), flow("write")
        )
        remote = device_resource().share(
            load(n_write_remote=24.0, raw_write_remote=24), flow("write", remote=True)
        )
        assert remote < 0.85 * local

    def test_sparse_remote_writers_escape_knee(self):
        """24 raw writers at low duty (software-bound) keep most bandwidth."""
        dense = device_resource().share(
            load(n_write_remote=24.0, raw_write_remote=24), flow("write", remote=True)
        )
        sparse = device_resource().share(
            load(n_write_remote=2.0, raw_write_remote=24), flow("write", remote=True)
        )
        # Sparse load: per-thread share is computed at low effective
        # concurrency, so it is *larger*.
        assert sparse > dense


class TestPollers:
    def test_poller_bookkeeping(self):
        resource = device_resource()
        resource.add_poller(remote=True)
        resource.add_poller(remote=False)
        assert resource.poller_count == 2
        resource.remove_poller(remote=True)
        resource.remove_poller(remote=False)
        assert resource.poller_count == 0

    def test_remove_unregistered_poller_raises(self):
        with pytest.raises(StorageError):
            device_resource().remove_poller(remote=False)

    def test_pollers_slow_writes(self):
        resource = device_resource()
        busy = load(n_write_local=8.0, raw_write_local=8)
        before = resource.share(busy, flow("write"))
        for _ in range(16):
            resource.add_poller(remote=True)
        after = resource.share(busy, flow("write"))
        assert after < before


class TestCongestionEwma:
    def test_ewma_rises_under_sustained_remote_writes(self):
        resource = device_resource()
        busy = load(n_write_remote=16.0, raw_write_remote=16)
        busy.congestion_write_remote = 16.0
        resource.observe(0.0, busy)
        resource.observe(5.0, busy)
        assert resource.remote_write_ewma > 10.0

    def test_ewma_decays_when_idle(self):
        resource = device_resource()
        busy = load(n_write_remote=16.0, raw_write_remote=16)
        busy.congestion_write_remote = 16.0
        resource.observe(0.0, busy)
        resource.observe(5.0, busy)  # hot
        resource.observe(5.0 + 1e-9, ResourceLoad())  # writes stop
        resource.observe(20.0, ResourceLoad())  # long idle gap
        assert resource.remote_write_ewma < 1.0

    def test_idle_gap_cools_before_new_burst(self):
        """The EWMA integrates the *held* load, not the incoming one."""
        resource = device_resource()
        hot = load(n_write_remote=24.0, raw_write_remote=24)
        hot.congestion_write_remote = 24.0
        resource.observe(0.0, ResourceLoad())  # idle interval [0, 10)
        resource.observe(10.0, hot)  # burst arrives at t=10
        # The arrival observation itself must not have warmed the EWMA.
        assert resource.remote_write_ewma == pytest.approx(0.0, abs=1e-9)


class TestOptaneDevice:
    def test_capacity_accounting(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=10 * GiB)
        device.allocate(4 * GiB)
        assert device.allocated_bytes == 4 * GiB
        assert device.free_bytes == 6 * GiB
        device.free(4 * GiB)
        assert device.allocated_bytes == 0

    def test_over_allocation_raises(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=1 * GiB)
        with pytest.raises(StorageError, match="exhausted"):
            device.allocate(2 * GiB)

    def test_invalid_free_raises(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=1 * GiB)
        with pytest.raises(StorageError):
            device.free(1)

    def test_negative_allocation_raises(self):
        device = OptaneDevice(socket_id=0, capacity_bytes=1 * GiB)
        with pytest.raises(StorageError):
            device.allocate(-1)

    def test_default_capacity_is_paper_testbed(self):
        """§V: 6 x 512 GB Optane DIMMs per socket."""
        assert OptaneDevice(socket_id=0).capacity_bytes == 6 * 512 * GiB

    def test_interleave_matches_calibration(self):
        device = OptaneDevice(socket_id=0)
        assert device.interleave.chunk_bytes == CAL.interleave_chunk
        assert device.interleave.ndimms == CAL.dimms_per_socket
