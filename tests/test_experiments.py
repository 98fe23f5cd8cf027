"""Integration tests for the experiment harness.

Each experiment module must run, produce artifacts, and reproduce its
claims.  The heavyweight figure experiments reuse run machinery already
exercised elsewhere; here we verify the harness contracts and the claim
outcomes on the cheaper experiments, plus registry/CLI behaviour and the
run counts of one shared tuner: a view that re-simulates a cell fails.
"""

import pytest

from repro.core.optimize.cli import main as optimize_main
from repro.errors import ConfigurationError
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments
from repro.experiments import (
    ablation_model,
    fig01_motivation,
    fig03_parameter_space,
    fig05_micro2k,
    table01_configs,
    table02_recommendations,
)
from repro.experiments.runner import main as experiments_main


class TestRegistry:
    def test_fourteen_experiments(self):
        assert len(EXPERIMENTS) == 14

    def test_paper_order(self):
        ids = list_experiments()
        assert ids[0] == "fig01"
        assert "table02" in ids and "headline" in ids

    def test_lookup(self):
        assert get_experiment("fig04") is EXPERIMENTS["fig04"]

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError, match="valid IDs"):
            get_experiment("fig99")


class TestCheapExperiments:
    def test_table01(self, suite_tuner):
        result = table01_configs.run(suite_tuner)
        assert result.claims_held == len(result.claims) == 1
        assert "S-LocW" in result.artifacts[0]

    def test_fig03(self, suite_tuner):
        result = fig03_parameter_space.run(suite_tuner)
        assert result.claims_held == len(result.claims)
        assert result.data["axis_values"]["concurrency"] == ["high", "low", "medium"]

    def test_fig01(self, suite_tuner):
        result = fig01_motivation.run(suite_tuner)
        assert result.claims_held == len(result.claims)

    def test_ablation_model(self, suite_tuner):
        result = ablation_model.run(suite_tuner)
        assert result.claims_held == len(result.claims)
        assert result.data["baseline_best"] == "S-LocW"
        assert result.data["no_mix_best"].startswith("P")
        assert result.data["no_remote_gap"] < 0.01


class TestFigureExperiment:
    @pytest.fixture(scope="class")
    def fig05(self, suite_tuner):
        return fig05_micro2k.run(suite_tuner)

    def test_three_panels(self, fig05):
        assert len(fig05.artifacts) == 3
        assert "Fig 5a" in fig05.artifacts[0]

    def test_winner_claims_hold(self, fig05):
        winner_claims = [c for c in fig05.claims if ".winner." in c.claim_id]
        assert len(winner_claims) == 3
        assert all(c.holds for c in winner_claims)

    def test_data_payload(self, fig05):
        assert fig05.data["best@24"] == "S-LocR"
        assert set(fig05.data["makespans@8"]) == {
            "S-LocW",
            "S-LocR",
            "P-LocW",
            "P-LocR",
        }

    def test_render_contains_claims(self, fig05):
        text = fig05.render()
        assert "Paper claims" in text
        assert "fig05" in text


class TestTable02:
    @pytest.fixture(scope="class")
    def table02(self, suite_tuner):
        return table02_recommendations.run(suite_tuner)

    def test_rule_engine_matches_paper(self, table02):
        assert table02.data["table_hits"] == table02.data["total"] == 18

    def test_low_regret(self, table02):
        assert table02.data["max_regret"] <= 0.25

    def test_claims_hold(self, table02):
        assert all(c.holds for c in table02.claims)


# ----------------------------------------------------------------------
# One sweep, many views: every distinct run is simulated once.
# ----------------------------------------------------------------------
def test_all_experiments_simulate_each_run_once(run_counter, capsys):
    # 72 suite runs, 20 NOVAfs runs of ablation-stacks and 8 runs of
    # ablation-model's two model variants; every other view re-reads them.
    assert experiments_main(["all"]) == 0
    capsys.readouterr()
    assert sum(run_counter.values()) == 100
    assert set(run_counter.values()) == {1}


def test_optimize_validate_simulates_the_suite_once(run_counter, capsys):
    # The frontier self-check prices from the re-derivation's runs.
    assert optimize_main(["validate"]) == 0
    capsys.readouterr()
    assert sum(run_counter.values()) == 72
    assert set(run_counter.values()) == {1}
