"""Benchmarks: storage-stack and device-model-term ablations."""

from repro.experiments import ablation_model, ablation_stacks


def test_ablation_stacks(run_experiment):
    # The fixture asserts every returned claim holds; this pins which
    # claims there are, so one the experiment stops emitting is noticed.
    result = run_experiment(ablation_stacks.run)
    assert {claim.claim_id for claim in result.claims} == {
        "ablation-stacks.large_objects_agree",
        "ablation-stacks.software_cost",
    }


def test_ablation_model(run_experiment):
    result = run_experiment(ablation_model.run)
    assert result.data["no_mix_best"].startswith("P")
