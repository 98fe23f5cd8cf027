"""Tests for launch-command generation and timeline rendering."""

import pytest

from repro.apps.microbench import micro_workflow
from repro.core.configs import P_LOCR, S_LOCW
from repro.core.launch import render_launch_plan
from repro.core.pinning import plan_pinning
from repro.errors import ConfigurationError
from repro.metrics.timeline import render_timeline
from repro.platform.builder import paper_testbed
from repro.sim.trace import Tracer
from repro.units import MiB
from repro.workflow.kernels import FixedWorkKernel
from repro.workflow.runner import run_workflow
from repro.workflow.spec import WorkflowSpec
from repro.storage.objects import SnapshotSpec


@pytest.fixture(scope="module")
def spec():
    return micro_workflow(16 * MiB, ranks=4, iterations=3)


class TestLaunchPlan:
    def test_serial_sequences_components(self, spec):
        plan = plan_pinning(spec, S_LOCW, paper_testbed())
        launch = render_launch_plan(spec, S_LOCW, plan)
        assert "&" not in launch.simulation_command
        assert "wait" not in launch.analytics_command

    def test_parallel_backgrounds_simulation(self, spec):
        plan = plan_pinning(spec, P_LOCR, paper_testbed())
        launch = render_launch_plan(spec, P_LOCR, plan)
        assert launch.simulation_command.endswith("&")
        assert launch.analytics_command.endswith("wait")

    def test_channel_on_placement_socket(self, spec):
        plan = plan_pinning(spec, P_LOCR, paper_testbed())
        launch = render_launch_plan(spec, P_LOCR, plan)
        # LocR -> channel on the reader socket (1).
        assert "/mnt/pmem1" in "\n".join(launch.prologue)

    def test_pinning_flags_present(self, spec):
        plan = plan_pinning(spec, S_LOCW, paper_testbed())
        launch = render_launch_plan(spec, S_LOCW, plan)
        assert f"-np {spec.ranks}" in launch.simulation_command
        assert "--membind=0" in launch.simulation_command
        assert "--membind=1" in launch.analytics_command
        assert "--physcpubind=0,1,2,3" in launch.simulation_command

    def test_script_rendering(self, spec):
        plan = plan_pinning(spec, S_LOCW, paper_testbed())
        script = render_launch_plan(spec, S_LOCW, plan).as_script()
        assert script.startswith("#!/bin/sh")
        assert "mkdir -p" in script

    def test_rank_mismatch_rejected(self, spec):
        plan = plan_pinning(spec, S_LOCW, paper_testbed())
        other = micro_workflow(16 * MiB, ranks=8, iterations=3)
        with pytest.raises(ConfigurationError):
            render_launch_plan(other, S_LOCW, plan)


class TestTimeline:
    @pytest.fixture(scope="class")
    def traced_run(self):
        spec = WorkflowSpec(
            name="timeline@2",
            ranks=2,
            iterations=2,
            snapshot=SnapshotSpec(object_bytes=16 * MiB, objects_per_snapshot=4),
            sim_compute=FixedWorkKernel(0.2),
        )
        return run_workflow(spec, P_LOCR, trace=True)

    def test_renders_all_ranks(self, traced_run):
        text = render_timeline(traced_run.tracer, width=60)
        assert text.count("writer[") == 2
        assert text.count("reader[") == 2

    def test_contains_phase_glyphs(self, traced_run):
        text = render_timeline(traced_run.tracer, width=60)
        assert "W" in text  # writes
        assert "R" in text  # reads
        assert "." in text  # compute

    def test_width_respected(self, traced_run):
        text = render_timeline(traced_run.tracer, width=40)
        body_lines = text.splitlines()[1:]
        assert all(len(line) == len("writer[ 0] ") + 40 for line in body_lines)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            render_timeline(Tracer(), width=40)

    def test_narrow_width_rejected(self, traced_run):
        with pytest.raises(ConfigurationError):
            render_timeline(traced_run.tracer, width=5)

    def test_phase_summary(self, traced_run):
        tracer = traced_run.tracer
        assert tracer.total_time("writer", "write") > 0
        compute = tracer.total_time("writer", "compute")
        assert compute == pytest.approx(2 * 2 * 0.2, rel=0.05)
