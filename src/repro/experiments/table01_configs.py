"""Table I: the four scheduler configurations.

Reproduces the configuration enumeration — execution mode x placement —
and verifies the semantics wired into the scheduler (which component is
local, which transfers cross the UPI link).
"""

from __future__ import annotations

from repro.core.autotune import ExhaustiveTuner
from repro.core.configs import ALL_CONFIGS
from repro.experiments.common import Claim, ExperimentResult
from repro.metrics.report import format_table

EXPERIMENT_ID = "table01"
TITLE = "Summary of configurations"


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, description=__doc__.strip()
    )
    rows = [
        (
            config.label,
            config.mode.value.capitalize(),
            config.placement.value,
        )
        for config in ALL_CONFIGS
    ]
    result.artifacts.append(
        format_table(["Config label", "Execution Mode", "Placement"], rows)
    )
    expected = {
        ("S-LocW", "Serial", "local-write-remote-read"),
        ("S-LocR", "Serial", "remote-write-local-read"),
        ("P-LocW", "Parallel", "local-write-remote-read"),
        ("P-LocR", "Parallel", "remote-write-local-read"),
    }
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.enumeration",
            description="the four Table I configurations",
            paper_value="S-LocW, S-LocR, P-LocW, P-LocR",
            measured_value=", ".join(c.label for c in ALL_CONFIGS),
            holds=set(rows) == expected,
        )
    )
    result.data["configs"] = [c.label for c in ALL_CONFIGS]
    return result
