"""Unit tests for the experiment-harness building blocks (no simulation)."""

import pytest

from repro.experiments.common import Claim, ExperimentResult, gap_claim
from repro.experiments.runner import _markdown_report, main


class TestGapClaim:
    def test_same_direction_and_magnitude_holds(self):
        claim = gap_claim("c", "d", paper_gap=0.25, measured_gap=0.22)
        assert claim.holds
        assert claim.paper_value == "+25.0%"
        assert claim.measured_value == "+22.0%"

    def test_wrong_direction_fails(self):
        claim = gap_claim("c", "d", paper_gap=0.25, measured_gap=-0.25)
        assert not claim.holds

    def test_abs_tolerance_saves_small_misses(self):
        claim = gap_claim(
            "c", "d", paper_gap=0.06, measured_gap=-0.01, abs_tolerance=0.08
        )
        assert claim.holds

    def test_rel_tolerance_bounds_magnitude(self):
        assert gap_claim(
            "c", "d", paper_gap=0.10, measured_gap=0.60, rel_tolerance=1.0,
            abs_tolerance=0.0,
        ).holds is False
        assert gap_claim(
            "c", "d", paper_gap=0.10, measured_gap=0.18, rel_tolerance=1.0,
            abs_tolerance=0.0,
        ).holds is True


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            experiment_id="figX",
            title="Title",
            description="Desc",
            artifacts=["BAR CHART"],
            claims=[
                Claim("figX.a", "claim a", "1", "1", True),
                Claim("figX.b", "claim b", "2", "3", False, note="why"),
            ],
        )

    def test_claims_held(self):
        assert self.make().claims_held == 1

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "figX" in text
        assert "BAR CHART" in text
        assert "[OK ]" in text and "[MISS]" in text
        assert "why" in text

    def test_markdown_report(self):
        report = _markdown_report([self.make()])
        assert report.startswith("# EXPERIMENTS")
        assert "1/2" in report
        assert "| claim a | 1 | 1 | reproduced |" in report
        assert "**MISS**" in report


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "table02" in out

    def test_single_experiment(self, capsys):
        assert main(["table01"]) == 0
        out = capsys.readouterr().out
        assert "S-LocW" in out

    def test_unknown_experiment(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["fig99"])

    def test_markdown_flag(self, capsys):
        assert main(["table01", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# EXPERIMENTS")


def test_jobs_without_service_exits_2(capsys):
    assert main(["table01", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert "--service DIR" in err
    assert "repro-service submit --experiment" in err
