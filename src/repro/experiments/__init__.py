"""Experiment harness: one module per paper figure/table.

Every experiment module exposes ``run(tuner) -> ExperimentResult`` which
re-generates the corresponding artifact (runtime bars per configuration,
normalized charts, recommendation tables) from the reports of one
:class:`~repro.core.autotune.ExhaustiveTuner` and checks the paper's
quantified claims against the simulated numbers.  Experiments that share a
tuner share its runs, so each cell is simulated once.  The registry maps
experiment IDs to modules; ``python -m repro.experiments <id>`` (or
``all``) runs them from the command line through one tuner and can emit
the EXPERIMENTS.md report.
"""

from repro.experiments.common import Claim, ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "Claim",
    "EXPERIMENTS",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
]
