"""Benchmark-suite configuration.

Each benchmark regenerates one paper artifact (figure or table) through the
experiment harness, exactly once per benchmark (the workloads are
deterministic discrete-event simulations — repetition adds no information,
so rounds/iterations are pinned to 1 via ``benchmark.pedantic``).

Run with::

    pytest benchmarks/ --benchmark-only
"""

import pytest

from repro.core.autotune import ExhaustiveTuner


@pytest.fixture
def run_experiment(benchmark):
    """Benchmark one experiment and verify its claims reproduced.

    Each experiment tunes through a fresh tuner, so its time covers every
    simulation it reads.
    """

    def _run(experiment_fn, min_claims_held=None):
        result = benchmark.pedantic(
            experiment_fn, args=(ExhaustiveTuner(),), rounds=1, iterations=1, warmup_rounds=0
        )
        held, total = result.claims_held, len(result.claims)
        threshold = total if min_claims_held is None else min_claims_held
        assert held >= threshold, (
            f"{result.experiment_id}: only {held}/{total} paper claims "
            "reproduced:\n"
            + "\n".join(
                f"  MISS {c.claim_id}: paper {c.paper_value}, measured "
                f"{c.measured_value}"
                for c in result.claims
                if not c.holds
            )
        )
        return result

    return _run
