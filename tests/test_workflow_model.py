"""Unit tests for kernels, components, specs, and the analytic profile."""

import pytest

from repro.errors import ConfigurationError
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.storage.objects import SnapshotSpec
from repro.units import KiB, MiB
from repro.workflow.component import ComponentSpec
from repro.workflow.iteration import component_iteration_profile
from repro.workflow.kernels import (
    FixedWorkKernel,
    MatrixMultKernel,
    NullKernel,
    ParticlePushKernel,
    PerObjectKernel,
    StencilKernel,
)
from repro.workflow.spec import WorkflowSpec

CAL = DEFAULT_CALIBRATION


class TestKernels:
    def test_null_kernel(self):
        kernel = NullKernel()
        assert kernel.iteration_seconds() == 0.0
        assert kernel.is_null

    def test_fixed_kernel(self):
        assert FixedWorkKernel(seconds=1.5).iteration_seconds() == 1.5

    def test_fixed_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedWorkKernel(seconds=-1)

    def test_matrix_mult_flops(self):
        kernel = MatrixMultKernel(multiplies=1000, dim=10, gflops=2.0)
        assert kernel.iteration_seconds() == pytest.approx(
            1000 * 2 * 1000 / 2e9
        )

    def test_per_object_kernel(self):
        kernel = PerObjectKernel(objects=100, seconds_per_object=0.01)
        assert kernel.iteration_seconds() == pytest.approx(1.0)

    def test_particle_push(self):
        kernel = ParticlePushKernel(particles=1_000_000, flops_per_particle=400, gflops=4.0)
        assert kernel.iteration_seconds() == pytest.approx(0.1)

    def test_stencil(self):
        kernel = StencilKernel(blocks=10, cells_per_block=100, flops_per_cell=8, gflops=4.0)
        assert kernel.iteration_seconds() == pytest.approx(8000 / 4e9)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MatrixMultKernel(multiplies=-1, dim=2),
            lambda: MatrixMultKernel(multiplies=1, dim=0),
            lambda: PerObjectKernel(objects=-1, seconds_per_object=1),
            lambda: ParticlePushKernel(particles=-1),
            lambda: StencilKernel(blocks=1, cells_per_block=1, gflops=0),
        ],
    )
    def test_invalid_kernels_rejected(self, factory):
        with pytest.raises(ConfigurationError):
            factory()


class TestComponentSpec:
    def make(self, role="simulation", **kw):
        defaults = dict(
            role=role,
            ranks=8,
            iterations=10,
            snapshot=SnapshotSpec(object_bytes=1 * MiB, objects_per_snapshot=4),
            compute=NullKernel(),
        )
        defaults.update(kw)
        return ComponentSpec(**defaults)

    def test_io_kind(self):
        assert self.make("simulation").io_kind == "write"
        assert self.make("analytics").io_kind == "read"

    def test_invalid_role(self):
        with pytest.raises(ConfigurationError):
            self.make(role="transform")

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            self.make(ranks=0)
        with pytest.raises(ConfigurationError):
            self.make(iterations=0)

    def test_total_payload(self):
        assert self.make().total_payload_bytes() == 8 * 10 * 4 * MiB


class TestWorkflowSpec:
    def make(self, **kw):
        defaults = dict(
            name="test@8",
            ranks=8,
            iterations=10,
            snapshot=SnapshotSpec(object_bytes=1 * MiB, objects_per_snapshot=4),
        )
        defaults.update(kw)
        return WorkflowSpec(**defaults)

    def test_components_share_snapshot(self):
        spec = self.make()
        assert spec.writer.snapshot == spec.reader.snapshot
        assert spec.writer.ranks == spec.reader.ranks

    def test_with_ranks_weak_scales(self):
        spec = self.make().with_ranks(24)
        assert spec.ranks == 24
        assert spec.name == "test@8@24"
        assert spec.snapshot.snapshot_bytes == 4 * MiB  # per-rank constant

    def test_with_stack(self):
        assert self.make().with_stack("novafs").stack_name == "novafs"

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make(name="")

    def test_total_data(self):
        assert self.make().total_data_bytes() == 8 * 10 * 4 * MiB


class TestIterationProfile:
    def writer(self, object_bytes, objects, ranks=8, compute=None):
        return ComponentSpec(
            role="simulation",
            ranks=ranks,
            iterations=10,
            snapshot=SnapshotSpec(object_bytes=object_bytes, objects_per_snapshot=objects),
            compute=compute or NullKernel(),
        )

    def test_io_only_component_has_unit_io_index(self):
        profile = component_iteration_profile(self.writer(64 * MiB, 16))
        assert profile.io_index == pytest.approx(1.0)

    def test_compute_heavy_component_has_low_io_index(self):
        profile = component_iteration_profile(
            self.writer(64 * MiB, 16, compute=FixedWorkKernel(60.0))
        )
        assert profile.io_index < 0.1

    def test_large_objects_device_bound(self):
        profile = component_iteration_profile(self.writer(64 * MiB, 16))
        assert profile.duty > 0.95

    def test_small_objects_software_bound(self):
        """§VIII: small objects -> high software overhead -> low effective
        PMEM concurrency."""
        profile = component_iteration_profile(self.writer(2 * KiB, 524288, ranks=24))
        assert profile.duty < 0.3
        assert profile.effective_concurrency < 8

    def test_remote_never_faster(self):
        local = component_iteration_profile(self.writer(64 * MiB, 16))
        remote = component_iteration_profile(self.writer(64 * MiB, 16), remote=True)
        assert remote.io_seconds >= local.io_seconds

    def test_nova_slower_than_nvstream_for_small_objects(self):
        writer = self.writer(2 * KiB, 524288)
        nvs = component_iteration_profile(writer, stack="nvstream")
        nova = component_iteration_profile(writer, stack="novafs")
        assert nova.io_seconds > nvs.io_seconds
