"""Host-side self-metrics: the meter, profiling, and the record shape."""

import tracemalloc

import pytest

from repro.core.configs import S_LOCW
from repro.errors import SimulationError
from repro.obs.campaign import run_cell
from repro.obs.capture import observe_workflow
from repro.obs.hostmetrics import (
    KIND_CACHED,
    KIND_SIMULATED,
    HostMeter,
    HostMetrics,
    Hotspot,
    aggregate_host_metrics,
    host_metrics_from_record,
    simulated_host_metrics,
)
from repro.apps.suite import build_workflow


def tiny_observation():
    return observe_workflow(build_workflow("micro-2k", 8, iterations=1), S_LOCW)


class TestHostMeter:
    def test_measures_wall_time_and_memory(self):
        with HostMeter() as meter:
            tracing_inside = tracemalloc.is_tracing()
            blob = [bytes(64 * 1024) for _ in range(8)]
        assert meter.wall_seconds > 0
        assert meter.peak_rss_bytes > 0
        # The default meter never traces allocations: that is profiling.
        assert not tracing_inside
        assert meter.peak_tracemalloc_bytes == 0
        assert blob  # keep the allocation alive through the block

    def test_profiled_meter_reports_allocation_peak(self):
        with HostMeter(profile=True) as meter:
            tracing_inside = tracemalloc.is_tracing()
            blob = [bytes(64 * 1024) for _ in range(8)]
        assert tracing_inside
        assert meter.peak_tracemalloc_bytes > 0
        assert meter.peak_rss_bytes > 0
        assert not tracemalloc.is_tracing()  # the meter stops what it started
        assert blob

    def test_profiled_meter_leaves_outer_tracing_running(self):
        tracemalloc.start()
        try:
            with HostMeter(profile=True) as meter:
                blob = bytes(64 * 1024)
            assert tracemalloc.is_tracing()
            assert meter.peak_tracemalloc_bytes > 0
            assert blob
        finally:
            tracemalloc.stop()

    def test_not_reentrant(self):
        meter = HostMeter()
        with meter:
            with pytest.raises(SimulationError):
                meter.__enter__()

    def test_no_hotspots_without_profiling(self):
        with HostMeter() as meter:
            pass
        assert meter.hotspots() == []

    def test_profiling_captures_hotspots(self):
        with HostMeter(profile=True, profile_top=5) as meter:
            tiny_observation()
        spots = meter.hotspots()
        assert 0 < len(spots) <= 5
        # Sorted by cumulative time, labelled host-path-independently.
        assert spots[0].cumtime >= spots[-1].cumtime
        assert all("(" in spot.function for spot in spots)
        assert all("/" not in spot.function for spot in spots)


class TestCellMeterCost:
    """Guards on what metering a cell costs, by counting, not timing."""

    def test_default_cell_runs_untraced(self):
        tracing = []
        run_cell(
            "micro-2k",
            8,
            iterations=1,
            on_observation=lambda _obs: tracing.append(tracemalloc.is_tracing()),
        )
        assert tracing and not any(tracing)

    def test_profiled_cell_keeps_hotspots_and_allocation_peak(self):
        cell = run_cell("micro-2k", 8, iterations=1, profile=True)
        assert cell.host.hotspots
        assert cell.host.peak_tracemalloc_bytes > 0
        assert cell.host.profiled


class TestSimulatedMetrics:
    def test_combines_meter_and_probe_counters(self):
        with HostMeter() as meter:
            observation = tiny_observation()
        metrics = simulated_host_metrics(meter, [observation])
        assert metrics.kind == KIND_SIMULATED
        assert metrics.runs == 1
        assert metrics.simulated_seconds == observation.result.makespan
        assert metrics.events_executed > 0
        assert metrics.flow_recomputes > 0
        assert metrics.solver_iterations > 0
        assert metrics.sim_seconds_per_wall_second > 0
        assert metrics.events_per_wall_second > 0

    def test_per_event_off_keeps_totals_and_drops_series(self):
        """A stored cell's lean observation reports the same work totals
        as a full one and records no engine or network series."""
        spec = build_workflow("micro-2k", 8, iterations=1)
        full = observe_workflow(spec, S_LOCW)
        lean = observe_workflow(spec, S_LOCW, per_event=False)
        assert lean.result.makespan == full.result.makespan
        assert lean.tracer.records == full.tracer.records
        full_metrics = simulated_host_metrics(HostMeter(), [full])
        lean_metrics = simulated_host_metrics(HostMeter(), [lean])
        for name in ("flow_recomputes", "solver_iterations", "flows_completed"):
            assert getattr(lean_metrics, name) == getattr(full_metrics, name) > 0
        assert full_metrics.flow_recomputes == full.probes.counter_total(
            "flow.recomputes"
        )
        assert full_metrics.solver_iterations == full.probes.counter_total(
            "flow.solver_iterations"
        )
        assert full_metrics.flows_completed == full.probes.counter_total(
            "flow.completed"
        )
        names = {instrument.name for instrument in lean.probes.instruments()}
        assert not names & {"engine.queue_depth", "flow.active", "flow.completed"}
        assert "channel.versions_published" in names
        assert "pmem.payload_bytes" in names

    def test_record_round_trip(self):
        with HostMeter(profile=True) as meter:
            observation = tiny_observation()
        metrics = simulated_host_metrics(meter, [observation])
        loaded = host_metrics_from_record(metrics.as_record())
        assert loaded.kind == metrics.kind
        assert loaded.wall_seconds == metrics.wall_seconds
        assert loaded.events_executed == metrics.events_executed
        assert loaded.peak_rss_bytes == metrics.peak_rss_bytes > 0
        assert [s.function for s in loaded.hotspots] == [
            s.function for s in metrics.hotspots
        ]

    def test_record_without_peak_rss_rehydrates_with_zero(self):
        # Host records stored before peak RSS was metered lack the key.
        record = HostMetrics(
            kind=KIND_SIMULATED, wall_seconds=1.5, peak_tracemalloc_bytes=4096
        ).as_record()
        del record["peak_rss_bytes"]
        loaded = host_metrics_from_record(record)
        assert loaded.peak_rss_bytes == 0
        assert loaded.peak_tracemalloc_bytes == 4096
        assert loaded.wall_seconds == 1.5


class TestAggregate:
    def test_sums_and_peak(self):
        a = HostMetrics(
            kind=KIND_SIMULATED,
            wall_seconds=1.0,
            simulated_seconds=10.0,
            events_executed=100,
            peak_rss_bytes=7000,
            peak_tracemalloc_bytes=500,
            runs=4,
            hotspots=[Hotspot("f.py:1(f)", 2, 0.1, 0.4)],
        )
        b = HostMetrics(
            kind=KIND_SIMULATED,
            wall_seconds=3.0,
            simulated_seconds=30.0,
            events_executed=300,
            peak_rss_bytes=9000,
            peak_tracemalloc_bytes=200,
            runs=4,
            hotspots=[Hotspot("f.py:1(f)", 1, 0.2, 0.3)],
        )
        total = aggregate_host_metrics([a, b])
        assert total.kind == KIND_SIMULATED
        assert total.wall_seconds == 4.0
        assert total.simulated_seconds == 40.0
        assert total.events_executed == 400
        assert total.peak_tracemalloc_bytes == 500  # max, not sum
        assert total.peak_rss_bytes == 9000
        assert total.runs == 8
        merged = total.hotspots[0]
        assert (merged.calls, merged.tottime, merged.cumtime) == (3, 0.30000000000000004, 0.7)

    def test_mixed_kinds(self):
        a = HostMetrics(kind=KIND_SIMULATED, wall_seconds=1.0)
        b = HostMetrics(kind=KIND_CACHED, wall_seconds=1.0)
        assert aggregate_host_metrics([a, b]).kind == "mixed"

    def test_zero_wall_rates_are_zero(self):
        metrics = HostMetrics(kind=KIND_SIMULATED, wall_seconds=0.0)
        assert metrics.sim_seconds_per_wall_second == 0.0
        assert metrics.events_per_wall_second == 0.0


class TestSolverStrategyCounters:
    """The PR's solver counters flow observation -> metrics -> records."""

    def test_captured_from_observed_run(self):
        with HostMeter() as meter:
            observation = tiny_observation()
        metrics = simulated_host_metrics(meter, [observation])
        # The fast solver is the default: classes accumulate every solve,
        # and the micro workflow's repeated identical phases hit the memo.
        assert metrics.solver_classes > 0
        assert metrics.solver_memo_hits + metrics.solver_memo_misses > 0
        assert 0.0 <= metrics.memo_hit_rate <= 1.0
        assert observation.solver_stats["solver_classes"] == metrics.solver_classes

    def test_memo_hit_rate_property(self):
        assert HostMetrics(kind=KIND_SIMULATED, wall_seconds=0.0).memo_hit_rate == 0.0
        metrics = HostMetrics(
            kind=KIND_SIMULATED,
            wall_seconds=0.0,
            solver_memo_hits=3.0,
            solver_memo_misses=1.0,
        )
        assert metrics.memo_hit_rate == 0.75

    def test_record_round_trip_includes_counters(self):
        metrics = HostMetrics(
            kind=KIND_SIMULATED,
            wall_seconds=0.0,
            solver_classes=7.0,
            solver_memo_hits=5.0,
            solver_memo_misses=2.0,
            recomputes_coalesced=11.0,
            solves_at_cap=3.0,
        )
        record = metrics.as_record()
        assert record["solver_classes"] == 7.0
        assert record["memo_hit_rate"] == 5.0 / 7.0
        assert record["solves_at_cap"] == 3.0
        loaded = host_metrics_from_record(record)
        assert loaded.solver_classes == 7.0
        assert loaded.solver_memo_hits == 5.0
        assert loaded.solver_memo_misses == 2.0
        assert loaded.recomputes_coalesced == 11.0
        assert loaded.solves_at_cap == 3.0

    def test_record_with_retired_solver_keys_rehydrates(self):
        # Records stored before the single-solver path carry two counters
        # that no longer exist, and no solves_at_cap.
        record = HostMetrics(
            kind=KIND_SIMULATED, wall_seconds=0.5, solver_memo_hits=4.0
        ).as_record()
        del record["solves_at_cap"]
        record["solver_components_skipped"] = 0.0
        record["vector_batches"] = 0.0
        loaded = host_metrics_from_record(record)
        assert loaded.solver_memo_hits == 4.0
        assert loaded.solves_at_cap == 0.0
        assert "vector_batches" not in loaded.as_record()
        assert "solver_components_skipped" not in loaded.as_record()

    def test_aggregate_sums_counters(self):
        a = HostMetrics(
            kind=KIND_SIMULATED,
            wall_seconds=0.0,
            solver_classes=2.0,
            solver_memo_hits=1.0,
            solver_memo_misses=3.0,
            recomputes_coalesced=4.0,
            solves_at_cap=1.0,
        )
        b = HostMetrics(
            kind=KIND_SIMULATED,
            wall_seconds=0.0,
            solver_classes=5.0,
            solver_memo_hits=2.0,
            solver_memo_misses=1.0,
            recomputes_coalesced=6.0,
            solves_at_cap=2.0,
        )
        total = aggregate_host_metrics([a, b])
        assert total.solver_classes == 7.0
        assert total.solver_memo_hits == 3.0
        assert total.solver_memo_misses == 4.0
        assert total.recomputes_coalesced == 10.0
        assert total.solves_at_cap == 3.0
        assert total.memo_hit_rate == 3.0 / 7.0
