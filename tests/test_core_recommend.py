"""Unit tests for the recommendation engine (Table II rules + cost model)."""

import pytest

from repro.apps.suite import workflow_suite
from repro.core.configs import ALL_CONFIGS
from repro.core.recommend import (
    CostModelParameters,
    RecommendationEngine,
    table2_rules,
)
from repro.errors import ConfigurationError


class TestTable2Rules:
    def test_ten_rows_in_order(self):
        rules = table2_rules()
        assert [r.row for r in rules] == list(range(1, 11))

    def test_row_configs_match_paper(self):
        """Rows 1-4 -> S-LocW, 5-7 -> S-LocR, 8 -> P-LocW, 9-10 -> P-LocR."""
        by_row = {r.row: r.config.label for r in table2_rules()}
        assert all(by_row[i] == "S-LocW" for i in (1, 2, 3, 4))
        assert all(by_row[i] == "S-LocR" for i in (5, 6, 7))
        assert by_row[8] == "P-LocW"
        assert all(by_row[i] == "P-LocR" for i in (9, 10))

    def test_every_suite_workflow_matches_some_row(self):
        engine = RecommendationEngine(strategy="table2")
        for entry in workflow_suite():
            recommendation = engine.recommend(entry.spec)
            assert recommendation.matched_rule is not None

    def test_rules_pick_paper_config_for_suite(self):
        """The literal Table II engine reproduces the paper's pick for
        every illustrative workload."""
        engine = RecommendationEngine(strategy="table2")
        for entry in workflow_suite():
            recommendation = engine.recommend(entry.spec)
            assert recommendation.config.label == entry.paper_best, entry.spec.name


class TestEngine:
    def test_invalid_strategy(self):
        with pytest.raises(ConfigurationError):
            RecommendationEngine(strategy="magic")

    def test_hybrid_prefers_table2(self):
        engine = RecommendationEngine(strategy="hybrid")
        entry = workflow_suite()[0]
        assert engine.recommend(entry.spec).strategy == "table2"

    def test_model_strategy_always_answers(self):
        engine = RecommendationEngine(strategy="model")
        for entry in workflow_suite():
            recommendation = engine.recommend(entry.spec)
            assert recommendation.config in ALL_CONFIGS
            assert recommendation.strategy == "model"
            assert recommendation.reason

    def test_model_agrees_with_paper_on_majority(self):
        """The quantified §VIII cost model is approximate but should agree
        with the paper's pick on a solid majority of the suite."""
        engine = RecommendationEngine(strategy="model")
        entries = workflow_suite()
        hits = sum(
            engine.recommend(e.spec).config.label == e.paper_best for e in entries
        )
        assert hits >= int(0.55 * len(entries))

    def test_model_picks_locw_for_bandwidth_bound(self):
        from repro.apps.microbench import micro_workflow
        from repro.units import MiB

        engine = RecommendationEngine(strategy="model")
        recommendation = engine.recommend(micro_workflow(64 * MiB, 24))
        assert recommendation.config.writer_local

    def test_model_picks_parallel_for_compute_heavy(self):
        from repro.apps.analytics import gtc_matrixmult_kernel
        from repro.apps.gtc import gtc_workflow

        engine = RecommendationEngine(strategy="model")
        recommendation = engine.recommend(
            gtc_workflow(gtc_matrixmult_kernel(), ranks=8)
        )
        assert recommendation.config.parallel

    def test_custom_cost_parameters(self):
        params = CostModelParameters(contention_theta=1.0)
        engine = RecommendationEngine(strategy="model", params=params)
        # Absurdly low theta means contention always dominates: everything
        # should be scheduled serially.
        for entry in workflow_suite()[:4]:
            assert not engine.recommend(entry.spec).config.parallel

    def test_recommendation_carries_features(self):
        engine = RecommendationEngine()
        entry = workflow_suite()[0]
        recommendation = engine.recommend(entry.spec)
        assert recommendation.features.workflow_name == entry.spec.name
