"""Unit tests for results, analysis, and reporting."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.analysis import (
    best_config,
    compare_configs,
    gap_between,
    normalized_runtimes,
    slowdown_of,
)
from repro.metrics.report import ascii_bar_chart, format_table
from repro.metrics.results import PhaseBreakdown, RunResult


def result(config, makespan, name="wf", writer=(0.0, 1.0), reader=(1.0, 2.0)):
    return RunResult(
        workflow_name=name,
        config_label=config,
        makespan=makespan,
        writer_span=writer,
        reader_span=reader,
        writer_phases=PhaseBreakdown(compute=0.1, io=0.5),
        reader_phases=PhaseBreakdown(io=0.4, wait=0.1),
    )


class TestRunResult:
    def test_spans_and_runtimes(self):
        r = result("S-LocW", 2.0)
        assert r.writer_runtime == 1.0
        assert r.reader_runtime == 1.0

    def test_is_serial(self):
        assert result("S-LocW", 2.0).is_serial
        assert not result("P-LocW", 2.0, reader=(0.5, 2.0)).is_serial

    def test_negative_makespan_rejected(self):
        with pytest.raises(ConfigurationError):
            result("S-LocW", -1.0)

    def test_describe(self):
        assert "S-LocW" in result("S-LocW", 2.0).describe()

    def test_phase_breakdown(self):
        phases = PhaseBreakdown(compute=1.0, io=3.0, wait=0.5)
        assert phases.total == 4.5
        assert phases.io_fraction == pytest.approx(0.75)

    def test_phase_breakdown_empty(self):
        assert PhaseBreakdown().io_fraction == 0.0


class TestAnalysis:
    def make_results(self):
        return [
            result("S-LocW", 10.0),
            result("S-LocR", 12.0),
            result("P-LocW", 15.0),
            result("P-LocR", 20.0),
        ]

    def test_best_config(self):
        assert best_config(self.make_results()) == "S-LocW"

    def test_best_config_tie_breaks_by_label(self):
        results = [result("P-LocW", 5.0), result("S-LocW", 5.0)]
        assert best_config(results) == "P-LocW"

    def test_normalized(self):
        normalized = normalized_runtimes(self.make_results())
        assert normalized["S-LocW"] == pytest.approx(1.0)
        assert normalized["P-LocR"] == pytest.approx(2.0)

    def test_slowdown(self):
        assert slowdown_of(self.make_results(), "S-LocR") == pytest.approx(0.2)

    def test_slowdown_unknown_config(self):
        with pytest.raises(ConfigurationError):
            slowdown_of(self.make_results(), "X-LocQ")

    def test_gap_between(self):
        assert gap_between(self.make_results(), "S-LocW", "S-LocR") == pytest.approx(0.2)
        assert gap_between(self.make_results(), "S-LocR", "S-LocW") == pytest.approx(
            -1.0 / 6.0
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            best_config([])

    def test_compare_configs(self):
        comparison = compare_configs(self.make_results())
        assert comparison.best_label == "S-LocW"
        assert comparison.worst_slowdown == pytest.approx(1.0)
        assert comparison.ranked()[0] == ("S-LocW", 10.0)

    def test_compare_rejects_mixed_workflows(self):
        with pytest.raises(ConfigurationError, match="mixed workflows"):
            compare_configs([result("S-LocW", 1.0, name="a"), result("S-LocR", 1.0, name="b")])

    def test_compare_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            compare_configs([result("S-LocW", 1.0), result("S-LocW", 2.0)])


class TestReport:
    def test_format_table(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_table_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a"], [["1", "2"]])

    def test_table_no_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_bar_chart_scaling(self):
        chart = ascii_bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = chart.splitlines()
        assert lines[1].count("#") == 10  # b is the peak
        assert lines[0].count("#") == 5

    def test_bar_chart_split_bars(self):
        chart = ascii_bar_chart(
            {"S-LocW": 2.0}, width=10, splits={"S-LocW": (1.0, 1.0)}
        )
        assert "=" in chart and "#" in chart

    def test_bar_chart_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_bar_chart({})

    def test_bar_chart_needs_positive_peak(self):
        with pytest.raises(ConfigurationError):
            ascii_bar_chart({"a": 0.0})
