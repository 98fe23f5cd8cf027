"""Unit tests for the probe API (counters, gauges, histograms, registry)."""

import math

import pytest

from repro.errors import SimulationError
from repro.obs.probes import (
    Counter,
    Gauge,
    Histogram,
    ProbeRegistry,
    UNDERFLOW_BUCKET,
)


class TestCounter:
    def test_accumulates_and_samples(self):
        counter = Counter("bytes")
        counter.add(1.0, 10.0)
        counter.add(2.0, 5.0)
        assert counter.total == 15.0
        assert counter.samples == [(1.0, 10.0), (2.0, 15.0)]

    def test_negative_increment_rejected(self):
        with pytest.raises(SimulationError):
            Counter("bytes").add(0.0, -1.0)

    def test_non_finite_increment_rejected(self):
        with pytest.raises(SimulationError):
            Counter("bytes").add(0.0, math.nan)
        with pytest.raises(SimulationError):
            Counter("bytes").add(0.0, math.inf)


class TestGauge:
    def test_tracks_value_and_peak(self):
        gauge = Gauge("depth")
        gauge.set(0.0, 3.0)
        gauge.set(1.0, 7.0)
        gauge.set(2.0, 2.0)
        assert gauge.value == 2.0
        assert gauge.peak == 7.0

    def test_dedups_unchanged_values(self):
        gauge = Gauge("depth")
        gauge.set(0.0, 3.0)
        gauge.set(1.0, 3.0)
        gauge.set(2.0, 4.0)
        assert gauge.samples == [(0.0, 3.0), (2.0, 4.0)]

    def test_non_finite_rejected(self):
        with pytest.raises(SimulationError):
            Gauge("depth").set(0.0, math.inf)


class TestHistogram:
    def test_summary_stats(self):
        histogram = Histogram("rate")
        for value in (1.0, 2.0, 4.0, 4.0):
            histogram.observe(0.0, value)
        assert histogram.count == 4
        assert histogram.sum == 11.0
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(2.75)

    def test_log2_buckets(self):
        histogram = Histogram("rate")
        histogram.observe(0.0, 1.5)  # bucket 0
        histogram.observe(0.0, 9.0)  # bucket 3
        histogram.observe(0.0, 0.0)  # underflow
        assert histogram.buckets == {0: 1, 3: 1, UNDERFLOW_BUCKET: 1}

    def test_non_finite_rejected(self):
        with pytest.raises(SimulationError):
            Histogram("rate").observe(0.0, math.nan)


class TestProbeRegistry:
    def test_get_or_create_returns_same_instrument(self):
        probes = ProbeRegistry()
        a = probes.counter("bytes", socket=0)
        b = probes.counter("bytes", socket=0)
        assert a is b

    def test_distinct_attrs_distinct_instruments(self):
        probes = ProbeRegistry()
        assert probes.counter("bytes", socket=0) is not probes.counter(
            "bytes", socket=1
        )

    def test_attr_order_does_not_matter(self):
        probes = ProbeRegistry()
        a = probes.counter("bytes", socket=0, direction="write")
        b = probes.counter("bytes", direction="write", socket=0)
        assert a is b
        assert a.label == "bytes{direction=write,socket=0}"

    def test_non_scalar_attr_rejected(self):
        with pytest.raises(SimulationError):
            ProbeRegistry().counter("bytes", socket=[0])

    def test_instruments_sorted(self):
        probes = ProbeRegistry()
        probes.gauge("zeta")
        probes.counter("beta")
        probes.counter("alpha", socket=1)
        probes.counter("alpha", socket=0)
        labels = [i.label for i in probes.instruments()]
        assert labels == ["alpha{socket=0}", "alpha{socket=1}", "beta", "zeta"]

    def test_counter_total_attrs_filter(self):
        probes = ProbeRegistry()
        probes.counter("bytes", socket=0, direction="write").add(0.0, 10.0)
        probes.counter("bytes", socket=1, direction="write").add(0.0, 5.0)
        probes.counter("bytes", socket=0, direction="read").add(0.0, 3.0)
        assert probes.counter_total("bytes") == 18.0
        assert probes.counter_total("bytes", direction="write") == 15.0
        assert probes.counter_total("bytes", socket=0) == 13.0
        assert probes.counter_total("bytes", socket=0, direction="read") == 3.0
        assert probes.counter_total("missing") == 0.0

    def test_as_records_roundtrip_shape(self):
        probes = ProbeRegistry()
        probes.counter("bytes").add(1.0, 2.0)
        probes.gauge("depth").set(1.0, 3.0)
        probes.histogram("rate").observe(1.0, 4.0)
        records = list(probes.as_records())
        assert [r["kind"] for r in records] == ["counter", "gauge", "histogram"]
        assert records[0]["total"] == 2.0
        assert records[1]["peak"] == 3.0
        assert records[2]["count"] == 1


def test_plain_run_builds_no_registry_and_attaches_no_hooks(monkeypatch):
    """DESIGN §7b "zero overhead when disabled": an unobserved run never
    builds a registry, and every emission site sees ``hooks is None``."""
    from repro.apps.suite import build_workflow
    from repro.core.configs import S_LOCW
    from repro.workflow import runner

    def refuse(self, *args, **kwargs):
        raise AssertionError("a plain run built a ProbeRegistry")

    monkeypatch.setattr(ProbeRegistry, "__init__", refuse)
    executions = []
    original_run = runner._WorkflowExecution.run

    def run(self):
        executions.append(self)
        return original_run(self)

    monkeypatch.setattr(runner._WorkflowExecution, "run", run)
    result = runner.run_workflow(build_workflow("micro-2k", 8), S_LOCW)
    assert result.makespan > 0
    (execution,) = executions
    assert execution.engine.hooks is None
    assert execution.network.hooks is None
    assert execution.channel.hooks is None
