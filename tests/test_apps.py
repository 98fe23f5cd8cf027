"""Unit tests for the workload suite."""

import pytest

from repro.apps.analytics import (
    gtc_matrixmult_kernel,
    miniamr_matrixmult_kernel,
    read_only_kernel,
)
from repro.apps.gtc import GTC_OBJECT_BYTES, gtc_workflow
from repro.apps.microbench import (
    LARGE_OBJECT_BYTES,
    SMALL_OBJECT_BYTES,
    SNAPSHOT_BYTES_PER_RANK,
    micro_workflow,
)
from repro.apps.miniamr import (
    MINIAMR_OBJECT_BYTES,
    MINIAMR_OBJECTS_PER_RANK,
    miniamr_workflow,
)
from repro.apps.suite import (
    CONCURRENCY_LEVELS,
    FAMILIES,
    PAPER_EXPECTATIONS,
    build_workflow,
    suite_entry,
    workflow_suite,
)
from repro.errors import ConfigurationError
from repro.units import GiB, MiB


class TestMicrobench:
    def test_snapshot_is_1gib_per_rank(self):
        """§IV-B: each iteration streams a 1 GB snapshot per rank."""
        for object_bytes in (SMALL_OBJECT_BYTES, LARGE_OBJECT_BYTES):
            spec = micro_workflow(object_bytes, 8)
            assert spec.snapshot.snapshot_bytes == SNAPSHOT_BYTES_PER_RANK

    def test_paper_data_volumes(self):
        """Fig. 4: 80/160/240 GB at 8/16/24 threads."""
        for ranks, total in ((8, 80), (16, 160), (24, 240)):
            spec = micro_workflow(LARGE_OBJECT_BYTES, ranks)
            assert spec.total_data_bytes() == total * GiB

    def test_object_counts(self):
        assert micro_workflow(SMALL_OBJECT_BYTES, 8).snapshot.objects_per_snapshot == 524288
        assert micro_workflow(LARGE_OBJECT_BYTES, 8).snapshot.objects_per_snapshot == 16

    def test_io_only(self):
        spec = micro_workflow(LARGE_OBJECT_BYTES, 8)
        assert spec.sim_compute.is_null
        assert spec.analytics_compute.is_null

    def test_indivisible_object_size_rejected(self):
        with pytest.raises(ConfigurationError):
            micro_workflow(3000, 8)

    def test_names(self):
        assert micro_workflow(SMALL_OBJECT_BYTES, 16).name == "micro-2k@16"
        assert micro_workflow(LARGE_OBJECT_BYTES, 24).name == "micro-64mb@24"


class TestApplications:
    def test_gtc_object_size(self):
        """§VI-A: GTC uses 229 MB objects."""
        assert GTC_OBJECT_BYTES == 229 * MiB

    def test_gtc_compute_heavy(self):
        spec = gtc_workflow(ranks=8)
        assert spec.sim_compute.iteration_seconds() > 1.0

    def test_gtc_names(self):
        assert gtc_workflow(ranks=8).name == "gtc+readonly@8"
        assert gtc_workflow(gtc_matrixmult_kernel(), ranks=8).name == "gtc+matmult@8"

    def test_miniamr_object_size(self):
        """§VI-A: miniAMR uses 4.5 KB objects."""
        assert MINIAMR_OBJECT_BYTES == 4608

    def test_miniamr_528k_objects_at_16_ranks(self):
        """§VIII: 528 K objects per snapshot at 16 ranks."""
        assert MINIAMR_OBJECTS_PER_RANK * 16 == 528_000

    def test_miniamr_short_compute(self):
        spec = miniamr_workflow(ranks=8)
        assert 0 < spec.sim_compute.iteration_seconds() < 0.2

    def test_analytics_kernels(self):
        assert read_only_kernel().is_null
        assert gtc_matrixmult_kernel().iteration_seconds() > 0.1
        assert miniamr_matrixmult_kernel(MINIAMR_OBJECTS_PER_RANK).iteration_seconds() > 0.05


class TestSuite:
    def test_eighteen_workflows(self):
        """§IV-C: 18 total workloads."""
        assert len(workflow_suite()) == 18
        assert len(PAPER_EXPECTATIONS) == 18

    def test_six_families_three_levels(self):
        assert len(FAMILIES) == 6
        assert CONCURRENCY_LEVELS == (8, 16, 24)

    def test_every_entry_has_figure_and_expectation(self):
        for entry in workflow_suite():
            assert entry.figure.startswith("Fig ")
            assert entry.paper_best in ("S-LocW", "S-LocR", "P-LocW", "P-LocR")

    def test_expectations_cover_all_four_configs(self):
        winners = {best for best, _ in PAPER_EXPECTATIONS.values()}
        assert winners == {"S-LocW", "S-LocR", "P-LocW", "P-LocR"}

    def test_suite_entry_lookup(self):
        entry = suite_entry("gtc+readonly", 16)
        assert entry.paper_best == "S-LocR"
        assert entry.figure == "Fig 6b"

    def test_unknown_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            suite_entry("gtc+readonly", 12)
        with pytest.raises(ConfigurationError):
            suite_entry("lammps", 8)

    def test_stack_selection_propagates(self):
        entry = suite_entry("micro-2k", 8, stack_name="novafs")
        assert entry.spec.stack_name == "novafs"

    def test_filtered_suite(self):
        entries = workflow_suite(families=("micro-2k",), ranks=(8, 24))
        assert [e.spec.name for e in entries] == ["micro-2k@8", "micro-2k@24"]


class TestBuildWorkflow:
    def test_matches_suite_entries(self):
        # The shared constructor and the suite produce the same specs: one
        # (family, ranks) cell always means the same workflow everywhere.
        for family in FAMILIES:
            for ranks in CONCURRENCY_LEVELS:
                assert build_workflow(family, ranks) == suite_entry(
                    family, ranks
                ).spec

    def test_iterations_override(self):
        spec = build_workflow("micro-2k", 8, iterations=3)
        assert spec.iterations == 3

    def test_non_positive_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            build_workflow("micro-2k", 8, iterations=0)

    def test_matmul_dim_scales_miniamr_compute(self):
        small = build_workflow("miniamr+matmult", 8, matmul_dim=10)
        large = build_workflow("miniamr+matmult", 8, matmul_dim=20)
        # 2*dim^3 FLOPs per multiply: doubling dim is 8x the compute.
        ratio = (
            large.analytics_compute.seconds_per_object
            / small.analytics_compute.seconds_per_object
        )
        assert ratio == pytest.approx(8.0)

    def test_matmul_dim_ignored_by_other_families(self):
        assert build_workflow("gtc+readonly", 8, matmul_dim=99) == build_workflow(
            "gtc+readonly", 8
        )

    def test_stack_propagates(self):
        assert build_workflow("micro-2k", 8, stack_name="novafs").stack_name == "novafs"

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            build_workflow("lammps", 8)
