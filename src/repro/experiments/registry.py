"""Registry of all experiments, keyed by stable ID."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.autotune import ExhaustiveTuner
from repro.errors import ConfigurationError
from repro.experiments import (
    ablation_model,
    ablation_stacks,
    fig01_motivation,
    fig03_parameter_space,
    fig04_micro64mb,
    fig05_micro2k,
    fig06_gtc_readonly,
    fig07_gtc_matmult,
    fig08_miniamr_readonly,
    fig09_miniamr_matmult,
    fig10_normalized,
    headline,
    table01_configs,
    table02_recommendations,
)
from repro.experiments.common import ExperimentResult

ExperimentFn = Callable[[ExhaustiveTuner], ExperimentResult]

#: All experiments in presentation order (paper order).
EXPERIMENTS: Dict[str, ExperimentFn] = {
    "fig01": fig01_motivation.run,
    "table01": table01_configs.run,
    "fig03": fig03_parameter_space.run,
    "fig04": fig04_micro64mb.run,
    "fig05": fig05_micro2k.run,
    "fig06": fig06_gtc_readonly.run,
    "fig07": fig07_gtc_matmult.run,
    "fig08": fig08_miniamr_readonly.run,
    "fig09": fig09_miniamr_matmult.run,
    "fig10": fig10_normalized.run,
    "table02": table02_recommendations.run,
    "headline": headline.run,
    "ablation-stacks": ablation_stacks.run,
    "ablation-model": ablation_model.run,
}


def list_experiments() -> List[str]:
    """Experiment IDs in presentation order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentFn:
    """Look up an experiment by ID (raises with the valid IDs listed)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; valid IDs: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None
