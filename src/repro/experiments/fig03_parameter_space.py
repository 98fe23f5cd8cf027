"""Figure 3: the workflow parameter space.

The paper characterizes its suite along four workload axes — simulation I/O
index, concurrency, object size, analytics I/O index — plus the two
scheduling axes, and argues the suite spans a wide spectrum with a fan-out
of at least two at every axis node (no single parameter determines the
scheduling decision).  We compute the same characterization from the static
feature extractor and verify the fan-out property.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from repro.apps.suite import workflow_suite
from repro.core.autotune import ExhaustiveTuner
from repro.core.features import extract_features
from repro.experiments.common import Claim, ExperimentResult
from repro.metrics.report import format_table

EXPERIMENT_ID = "fig03"
TITLE = "Workflow parameter space"


def run(tuner: ExhaustiveTuner) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, description=__doc__.strip()
    )
    rows: List[Tuple] = []
    axis_values: Dict[str, set] = defaultdict(set)
    # (sim axis value, analytics axis value) pairs per workflow, for the
    # fan-out check: each observed axis value must recur in >= 2 workflows.
    axis_points: Dict[Tuple[str, str], int] = defaultdict(int)
    for entry in workflow_suite():
        features = extract_features(entry.spec, tuner.cal)
        sim_idx = f"{features.sim_io_index:.2f}"
        ana_idx = f"{features.analytics_io_index:.2f}"
        rows.append(
            (
                entry.spec.name,
                sim_idx,
                features.concurrency.value,
                features.object_size.value,
                ana_idx,
                entry.paper_best,
            )
        )
        axis_values["sim_io_index_class"].add(features.sim_write_class.value)
        axis_values["concurrency"].add(features.concurrency.value)
        axis_values["object_size"].add(features.object_size.value)
        axis_values["analytics_io_index_class"].add(
            features.analytics_read_class.value
        )
        for axis, value in (
            ("sim", features.sim_write_class.value),
            ("conc", features.concurrency.value),
            ("size", features.object_size.value),
            ("ana", features.analytics_read_class.value),
        ):
            axis_points[(axis, value)] += 1
    result.artifacts.append(
        format_table(
            [
                "workflow",
                "sim I/O index",
                "concurrency",
                "object size",
                "analytics I/O index",
                "paper config",
            ],
            rows,
            title="Workflow suite parameter characterization",
        )
    )
    result.data["axis_values"] = {k: sorted(v) for k, v in axis_values.items()}
    min_fanout = min(axis_points.values())
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.fanout",
            description="each node on each axis has a fan-out of at least 2",
            paper_value=">= 2 workflows per axis node",
            measured_value=f"min fan-out {min_fanout}",
            holds=min_fanout >= 2,
        )
    )
    spectrum = len(axis_values["concurrency"]) >= 3 and len(
        axis_values["object_size"]
    ) >= 2
    result.claims.append(
        Claim(
            claim_id=f"{EXPERIMENT_ID}.spectrum",
            description="the suite spans a wide spectrum of parameter combinations",
            paper_value="3 concurrency levels, small+large objects, varied I/O indexes",
            measured_value=str({k: len(v) for k, v in axis_values.items()}),
            holds=spectrum,
        )
    )
    return result
