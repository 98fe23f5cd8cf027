"""Unit tests for the tuner, pinning, and the end-to-end scheduler."""

import pytest

from repro.apps.microbench import micro_workflow
from repro.apps.gtc import gtc_workflow
from repro.core.autotune import ExhaustiveTuner
from repro.core.configs import ALL_CONFIGS, P_LOCR, S_LOCW
from repro.core.pinning import plan_pinning
from repro.core.scheduler import WorkflowScheduler
from repro.errors import ConfigurationError, PlacementError
from repro.platform.builder import paper_testbed, single_socket_node
from repro.units import MiB


@pytest.fixture(scope="module")
def small_spec():
    return micro_workflow(16 * MiB, ranks=4, iterations=3)


class TestExhaustiveTuner:
    def test_tunes_all_configs(self, small_spec, run_counter):
        tuner = ExhaustiveTuner()
        report = tuner.tune(small_spec)
        assert set(report.results) == {c.label for c in ALL_CONFIGS}
        # The tuner memoizes per spec: a second tune(), also of an equal
        # spec built anew, simulates nothing and returns the same report.
        assert tuner.tune(small_spec) is report
        assert tuner.tune(micro_workflow(16 * MiB, ranks=4, iterations=3)) is report
        assert sum(run_counter.values()) == 4
        assert {label for _, label, _ in run_counter} == {
            c.label for c in ALL_CONFIGS
        }

    def test_best_is_minimum(self, small_spec):
        report = ExhaustiveTuner().tune(small_spec)
        best = report.best_result.makespan
        assert all(best <= r.makespan for r in report.results.values())

    def test_regret_of_best_is_zero(self, small_spec):
        report = ExhaustiveTuner().tune(small_spec)
        assert report.regret_of(report.best_config) == pytest.approx(0.0)

    def test_regret_of_unevaluated_raises(self, small_spec):
        tuner = ExhaustiveTuner(configs=[S_LOCW])
        report = tuner.tune(small_spec)
        with pytest.raises(ConfigurationError):
            report.makespan_of(P_LOCR)

    def test_empty_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExhaustiveTuner(configs=[])


class TestPinning:
    def test_plan_shape(self, small_spec):
        node = paper_testbed()
        plan = plan_pinning(small_spec, S_LOCW, node)
        assert plan.writer_socket == 0
        assert plan.reader_socket == 1
        assert plan.channel_socket == 0
        assert len(plan.writer_cores) == small_spec.ranks
        assert len(plan.reader_cores) == small_spec.ranks

    def test_locr_channel_on_reader_socket(self, small_spec):
        plan = plan_pinning(small_spec, P_LOCR, paper_testbed())
        assert plan.channel_socket == plan.reader_socket
        assert not plan.writer_local

    def test_plan_releases_cores(self, small_spec):
        node = paper_testbed()
        plan_pinning(small_spec, S_LOCW, node)
        assert node.socket(0).cores.available == 28

    def test_single_socket_rejected(self, small_spec):
        with pytest.raises(PlacementError, match="two sockets"):
            plan_pinning(small_spec, S_LOCW, single_socket_node())

    def test_oversubscription_rolls_back(self):
        spec = micro_workflow(16 * MiB, ranks=4, iterations=2)
        node = paper_testbed()
        node.socket(1).cores.allocate(26, owner="other")  # only 2 left
        with pytest.raises(PlacementError):
            plan_pinning(spec, S_LOCW, node)
        # Writer-side allocation must have been rolled back.
        assert node.socket(0).cores.available == 28

    def test_rank_core_lookup(self, small_spec):
        plan = plan_pinning(small_spec, S_LOCW, paper_testbed())
        assert plan.rank_core("writer", 0) == plan.writer_cores[0]
        with pytest.raises(PlacementError):
            plan.rank_core("reader", 99)

    def test_as_dict_is_json_friendly(self, small_spec):
        import json

        plan = plan_pinning(small_spec, S_LOCW, paper_testbed())
        assert json.loads(json.dumps(plan.as_dict()))["channel_socket"] == 0


class TestWorkflowScheduler:
    def test_schedule_without_execution(self, small_spec):
        outcome = WorkflowScheduler().schedule(small_spec, execute=False)
        assert outcome.result is None
        assert outcome.config in ALL_CONFIGS
        assert outcome.regret is None

    def test_schedule_with_oracle_reports_regret(self, small_spec):
        outcome = WorkflowScheduler().schedule(small_spec, with_oracle=True)
        assert outcome.regret is not None
        assert outcome.regret >= 0.0

    def test_oracle_strategy_has_zero_regret(self, small_spec):
        outcome = WorkflowScheduler(strategy="oracle").schedule(
            small_spec, with_oracle=True
        )
        assert outcome.regret == pytest.approx(0.0)

    def test_gtc_recommendation_is_low_regret(self):
        spec = gtc_workflow(ranks=16, iterations=4)
        outcome = WorkflowScheduler().schedule(spec, with_oracle=True)
        assert outcome.regret <= 0.10

    def test_executed_result_uses_recommended_config(self, small_spec):
        outcome = WorkflowScheduler().schedule(small_spec)
        assert outcome.result.config_label == outcome.config.label
