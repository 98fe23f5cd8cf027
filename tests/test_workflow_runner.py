"""Integration tests for the workflow runner (DES execution semantics)."""

import pytest

from repro.core.configs import ALL_CONFIGS, P_LOCR, P_LOCW, S_LOCR, S_LOCW
from repro.errors import PlacementError, ValidationError
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.storage.objects import SnapshotSpec
from repro.units import KiB, MiB
from repro.workflow.iteration import component_iteration_profile
from repro.workflow.kernels import FixedWorkKernel
from repro.workflow import runner
from repro.workflow.runner import probe_component, run_workflow
from repro.workflow.spec import WorkflowSpec


def micro_spec(ranks=4, iterations=3, object_bytes=16 * MiB, objects=4, **kw):
    return WorkflowSpec(
        name=f"t@{ranks}",
        ranks=ranks,
        iterations=iterations,
        snapshot=SnapshotSpec(object_bytes=object_bytes, objects_per_snapshot=objects),
        **kw,
    )


class TestRunSemantics:
    def test_deterministic(self):
        spec = micro_spec()
        a = run_workflow(spec, S_LOCW)
        b = run_workflow(spec, S_LOCW)
        assert a.makespan == b.makespan

    def test_serial_reader_starts_after_writer_finishes(self):
        result = run_workflow(micro_spec(), S_LOCW)
        assert result.is_serial
        assert result.reader_span[0] >= result.writer_span[1] - 1e-9

    def test_parallel_overlaps(self):
        result = run_workflow(micro_spec(), P_LOCW)
        assert result.reader_span[0] < result.writer_span[1]
        assert not result.is_serial

    def test_makespan_covers_both_components(self):
        result = run_workflow(micro_spec(), P_LOCR)
        assert result.makespan >= result.writer_span[1] - 1e-9
        assert result.makespan >= result.reader_span[1] - 1e-9

    def test_bytes_moved_match_spec(self):
        spec = micro_spec(ranks=4, iterations=3)
        result = run_workflow(spec, S_LOCR)
        assert result.bytes_written == pytest.approx(spec.total_data_bytes())
        assert result.bytes_read == pytest.approx(spec.total_data_bytes())

    def test_reader_cannot_outrun_writer(self):
        """In parallel mode every read of version v starts after v's publish."""
        spec = micro_spec(sim_compute=FixedWorkKernel(0.5))
        result = run_workflow(spec, P_LOCR, trace=True)
        publishes = {}
        for record in result.tracer.records:
            if record.component == "writer" and record.phase == "write":
                publishes[(record.rank, record.iteration)] = record.end
        for record in result.tracer.records:
            if record.component == "reader" and record.phase == "read":
                key = (record.rank, record.iteration)
                assert record.start >= publishes[key] - 1e-9

    def test_trace_disabled_by_default(self):
        assert run_workflow(micro_spec(), S_LOCW).tracer is None

    def test_oversubscription_raises(self):
        # Pre-run validation rejects it with a structured diagnostic.
        with pytest.raises(ValidationError) as excinfo:
            run_workflow(micro_spec(ranks=40), S_LOCW)
        assert "SPEC204" in excinfo.value.codes

    def test_oversubscription_raises_unvalidated(self):
        # With validation off, the core pool itself is the backstop.
        with pytest.raises(PlacementError):
            run_workflow(micro_spec(ranks=40), S_LOCW, validate=False)

    def test_compute_jitter_zero_is_lockstep(self):
        spec = micro_spec(sim_compute=FixedWorkKernel(1.0))
        result = run_workflow(spec, S_LOCW, compute_jitter=0.0, trace=True)
        compute_records = [
            r
            for r in result.tracer.records
            if r.component == "writer" and r.phase == "compute" and r.iteration == 0
        ]
        durations = {round(r.duration, 12) for r in compute_records}
        assert durations == {1.0}

    def test_compute_jitter_is_mean_preserving_spread(self):
        spec = micro_spec(ranks=5, sim_compute=FixedWorkKernel(1.0))
        result = run_workflow(spec, S_LOCW, compute_jitter=0.1, trace=True)
        compute_records = [
            r
            for r in result.tracer.records
            if r.component == "writer" and r.phase == "compute" and r.iteration == 0
        ]
        durations = sorted(r.duration for r in compute_records)
        assert durations[0] == pytest.approx(0.9)
        assert durations[-1] == pytest.approx(1.1)
        assert sum(durations) / len(durations) == pytest.approx(1.0)


class TestPlacementSemantics:
    def test_locw_vs_locr_differ(self):
        spec = micro_spec(ranks=8, object_bytes=64 * MiB, objects=8)
        locw = run_workflow(spec, S_LOCW)
        locr = run_workflow(spec, S_LOCR)
        assert locw.makespan != pytest.approx(locr.makespan, rel=1e-3)

    def test_disabled_remote_penalty_equalizes_placements(self):
        cal = DEFAULT_CALIBRATION.replace(enable_remote_penalty=False)
        spec = micro_spec(ranks=8, object_bytes=64 * MiB, objects=8)
        locw = run_workflow(spec, S_LOCW, cal=cal)
        locr = run_workflow(spec, S_LOCR, cal=cal)
        # NVStream's software remote multipliers remain for reads, so allow
        # a small residual gap.
        assert locw.makespan == pytest.approx(locr.makespan, rel=0.02)

    def test_serial_split_bars(self):
        result = run_workflow(micro_spec(), S_LOCW)
        writer_bar, reader_bar = result.split_bar()
        assert writer_bar > 0 and reader_bar > 0
        assert writer_bar + reader_bar == pytest.approx(result.makespan, rel=0.05)


class TestAgainstAnalyticProfile:
    def test_probe_matches_closed_form_writer(self):
        """The DES standalone run agrees with the analytic fixed point."""
        spec = micro_spec(ranks=8, iterations=5, object_bytes=64 * MiB, objects=8)
        probe = probe_component(spec, "simulation")
        profile = component_iteration_profile(spec.writer)
        expected = spec.iterations * profile.io_seconds
        assert probe.writer_phases.io == pytest.approx(expected, rel=0.05)

    def test_probe_matches_closed_form_reader(self):
        spec = micro_spec(ranks=8, iterations=5, object_bytes=64 * MiB, objects=8)
        probe = probe_component(spec, "analytics")
        profile = component_iteration_profile(spec.reader)
        expected = spec.iterations * profile.io_seconds
        assert probe.reader_phases.io == pytest.approx(expected, rel=0.05)

    def test_probe_small_objects_agreement(self):
        spec = micro_spec(ranks=8, iterations=3, object_bytes=2 * KiB, objects=65536)
        probe = probe_component(spec, "simulation")
        profile = component_iteration_profile(spec.writer)
        assert probe.writer_phases.io == pytest.approx(
            spec.iterations * profile.io_seconds, rel=0.08
        )

    def test_probe_invalid_role(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            probe_component(micro_spec(), "observer")


class TestAllConfigsRun:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_every_config_executes(self, config):
        result = run_workflow(micro_spec(), config)
        assert result.makespan > 0
        assert result.config_label == config.label


class TestFlowTemplates:
    """``_make_flow`` builds every flow of one ``(kind, cpu_socket)`` from a
    per-run template; the flows must still equal a fresh derivation and
    stay independent of one another."""

    @staticmethod
    def capture_flows(monkeypatch, spec, config):
        seen = []
        original = runner._WorkflowExecution._make_flow

        def recording(execution, kind, cpu_socket, label):
            flow = original(execution, kind, cpu_socket, label)
            seen.append((execution, kind, cpu_socket, flow))
            return flow

        monkeypatch.setattr(runner._WorkflowExecution, "_make_flow", recording)
        run_workflow(spec, config)
        return seen

    @pytest.mark.parametrize("config", [P_LOCR, S_LOCW])
    def test_fields_equal_a_fresh_derivation(self, monkeypatch, config):
        spec = micro_spec(ranks=4, iterations=2, object_bytes=2 * MiB, objects=4)
        seen = self.capture_flows(monkeypatch, spec, config)
        combos = {(kind, socket) for _, kind, socket, _ in seen}
        assert combos == {("write", 0), ("read", 1)}
        for execution, kind, socket, flow in seen:
            stack, cal = execution.stack, execution.cal
            op_bytes = float(spec.snapshot.object_bytes)
            path, remote = execution.node.flow_path(socket, execution.channel_socket)
            self_cap = stack.self_cap(cal, kind, op_bytes, remote)
            single = (
                cal.single_thread_write() if kind == "write" else cal.single_thread_read()
            )
            assert flow.kind == kind
            assert flow.remote == remote
            assert flow.resources == path
            assert flow.self_cap == self_cap
            assert flow.nbytes == spec.snapshot.snapshot_bytes * stack.amplification(
                kind, op_bytes, remote
            )
            assert flow.op_bytes == stack.device_access_bytes(kind, op_bytes)
            assert flow.issue_weight == self_cap / (self_cap + single)

    def test_template_flows_share_shape_but_not_state(self, monkeypatch):
        spec = micro_spec(ranks=2, iterations=2, object_bytes=2 * MiB, objects=4)
        execution = self.capture_flows(monkeypatch, spec, P_LOCR)[0][0]
        a = execution._make_flow("write", 0, "a")
        b = execution._make_flow("write", 0, "b")
        assert a.shape == b.shape
        assert (a.label, b.label) == ("a", "b")
        assert a.done is not b.done
        a.remaining, a.rate, a.duty = 1.0, 2.0, 0.5
        a.done.succeed(a)
        assert b.remaining == b.nbytes
        assert (b.rate, b.duty) == (0.0, 1.0)
        assert not b.done.triggered
