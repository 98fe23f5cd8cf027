"""Correctness checks and statistics shared by the benchmark workloads."""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List, Mapping, Sequence

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

#: Relative makespan drift beyond which a result counts as failed; equal to
#: ``repro.obs.campaign.DEFAULT_DRIFT_THRESHOLD`` (a test keeps them equal),
#: restated here so the plain sweep never imports the observation layer.
DRIFT_THRESHOLD = 0.02

#: BENCHMARK.json's name and unit grammar.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: A cell summary: {"makespans": {config label: seconds}, "winner": label}.
Cell = Mapping[str, object]


def load_fixture(name: str):
    with open(os.path.join(FIXTURE_DIR, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def cell_summary(deterministic: Mapping[str, object]) -> Dict[str, object]:
    """The checked part of a stored cell payload."""
    return {
        "makespans": {
            label: entry["makespan"]
            for label, entry in deterministic["configs"].items()
        },
        "winner": deterministic["winner"],
    }


def check_cell(observed: Cell, reference: Cell, threshold: float = DRIFT_THRESHOLD) -> List[str]:
    """Problems of one cell against its reference (empty = correct).

    Each makespan that drifts by more than *threshold* (relative) or is
    missing is one problem, and so is a changed winner.
    """
    problems = []
    makespans = observed["makespans"]
    for label, expected in sorted(reference["makespans"].items()):
        actual = makespans.get(label)
        if actual is None:
            problems.append(f"{label}: missing")
        elif abs(actual - expected) > threshold * abs(expected):
            problems.append(
                f"{label}: makespan {actual!r} drifts from {expected!r} "
                f"by {(actual - expected) / expected:+.2%}"
            )
    if observed["winner"] != reference["winner"]:
        problems.append(
            f"winner {observed['winner']} != reference {reference['winner']}"
        )
    return problems


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
