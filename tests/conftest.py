"""Shared fixtures.

The expensive artifact — exhaustively tuning all 18 suite workflows — is
computed once per session, in one memoizing tuner, and shared by the
reproduction, recommendation, experiment, optimizer and metrics tests.
"""

from __future__ import annotations

import collections
from typing import Dict, Tuple

import pytest

import repro.core.autotune as autotune
from repro.apps.suite import SuiteEntry, workflow_suite
from repro.core.autotune import ExhaustiveTuner, TuningReport
from repro.pmem.calibration import DEFAULT_CALIBRATION


@pytest.fixture(scope="session")
def cal():
    """The default first-generation Optane calibration."""
    return DEFAULT_CALIBRATION


@pytest.fixture(scope="session")
def suite_entries():
    """The 18-workflow suite with paper expectations."""
    return workflow_suite()


@pytest.fixture(scope="session")
def suite_tuner() -> ExhaustiveTuner:
    """The session's tuner: each spec it tunes is simulated once."""
    return ExhaustiveTuner()


@pytest.fixture(scope="session")
def suite_reports(
    suite_entries, suite_tuner
) -> Dict[Tuple[str, int], TuningReport]:
    """Oracle (all-configuration) reports for every suite workflow."""
    return {entry.key: suite_tuner.tune(entry.spec) for entry in suite_entries}


@pytest.fixture(scope="session")
def suite_by_key(suite_entries) -> Dict[Tuple[str, int], SuiteEntry]:
    return {entry.key: entry for entry in suite_entries}


@pytest.fixture
def run_counter(monkeypatch):
    """Count the tuner's ``run_workflow`` calls per ``(spec, config label,
    calibration)``; a view that re-simulates a run shows up as a count > 1."""
    calls = collections.Counter()
    simulate = autotune.run_workflow

    def counting(spec, config, **kwargs):
        calls[(spec, config.label, kwargs.get("cal"))] += 1
        return simulate(spec, config, **kwargs)

    monkeypatch.setattr(autotune, "run_workflow", counting)
    return calls
