"""Picklable task functions executed inside worker processes.

Every function here is module-level (so :mod:`multiprocessing` can pickle
it by reference), takes a single payload dict, and imports the heavier
layers lazily inside the call — partly to keep worker start cheap, partly
to avoid import cycles (``repro.obs.campaign`` calls into this package for
its parallel path, and these tasks call back into it).

Two payload conventions coexist:

* **object payloads** (:func:`execute_cell`) carry real
  ``WorkflowSpec``/``SchedulerConfig``/``OptaneCalibration`` objects —
  used when the parent process built them itself (the campaign pool);
* **JSON payloads** (:func:`execute_cell_record`,
  :func:`execute_experiment`) carry only JSON types — used for jobs that
  round-trip through the persistent queue, where the payload must also be
  a readable, hashable record.

Each worker meters its own host cost: the records it returns carry
per-worker :mod:`repro.obs.hostmetrics` wall/memory readings, which is how
a parallel campaign's dashboard shows the speedup.
"""

from __future__ import annotations

from typing import Any, Dict


def execute_cell(payload: Dict[str, Any]) -> Any:
    """Run one campaign cell (object payload) -> ``CellResult``.

    Payload: the keyword arguments of :func:`repro.obs.campaign.run_cell`.
    """
    from repro.obs.campaign import run_cell

    return run_cell(**payload)


def cell_kwargs_from_json(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild :func:`repro.obs.campaign.run_cell` kwargs from a JSON job
    payload (the persistent-queue convention)."""
    from repro.core.configs import ALL_CONFIGS, SchedulerConfig
    from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration

    labels = payload.get("configs")
    configs = (
        tuple(SchedulerConfig.from_label(label) for label in labels)
        if labels
        else ALL_CONFIGS
    )
    cal_fields = payload.get("calibration")
    cal = (
        OptaneCalibration(**cal_fields)
        if cal_fields is not None
        else DEFAULT_CALIBRATION
    )
    return dict(
        family=payload["family"],
        ranks=payload["ranks"],
        configs=configs,
        cal=cal,
        iterations=payload.get("iterations"),
        stack_name=payload.get("stack_name", "nvstream"),
        matmul_dim=payload.get("matmul_dim"),
        profile=bool(payload.get("profile", False)),
    )


def execute_cell_record(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell from a JSON job payload -> a JSON stored-cell record.

    This is the service worker's entry point: payload in, record out, both
    plain JSON, so the queue can persist the former and the scheduler can
    cache/store the latter without the worker and parent sharing objects.

    A ``_telemetry`` key in the payload (``{"trace_id", "parent_id"}``,
    merged in by the scheduler at dispatch — never stored in the queue)
    switches on per-config tracing: each configuration's run is timed on
    the wall clock and returned as a ``simulate`` span, together with the
    run's virtual-time span records, under ``record["telemetry"]``.  The
    parent pops that key before caching/storing, so the deterministic
    record is byte-identical with tracing on or off.
    """
    from repro.obs.campaign import run_cell

    context = payload.get("_telemetry")
    kwargs = cell_kwargs_from_json(payload)
    telemetry: Dict[str, Any] = {}
    on_observation = None
    if context:
        import time

        from repro.obs.export import span_records
        from repro.obs.telemetry import SpanRecorder

        recorder = SpanRecorder()
        trace_id = context["trace_id"]
        parent_id = context.get("parent_id")
        sim_runs: list = []
        window = {"mark": time.time()}

        def on_observation(observation: Any) -> None:
            now = time.time()
            start = window["mark"]
            window["mark"] = now
            recorder.record(
                trace_id,
                "simulate",
                start,
                now,
                parent_id=parent_id,
                config=observation.manifest.config,
                run_id=observation.run_id,
            )
            sim_runs.append(
                {
                    "run_id": observation.run_id,
                    "makespan": observation.result.makespan,
                    "start": start,
                    "end": now,
                    "spans": span_records([observation]),
                }
            )

        telemetry = {"wall_spans": recorder.spans, "sim_runs": sim_runs}

    cell = run_cell(on_observation=on_observation, **kwargs)
    record = {
        "cell_id": cell.cell_id,
        "key": cell.key,
        "deterministic": cell.deterministic,
        "host": cell.host.as_record(),
        "provenance": cell.provenance,
    }
    if context:
        record["telemetry"] = {
            "wall_spans": [span.as_record() for span in telemetry["wall_spans"]],
            "sim_runs": telemetry["sim_runs"],
        }
    return record


def execute_experiment_object(payload: Dict[str, Any]) -> Any:
    """Run one registered experiment -> its full ``ExperimentResult``.

    The object-payload twin of :func:`execute_experiment`, for callers that
    render the complete report (``repro-experiments --jobs N``) rather than
    persisting a queue record.
    """
    from repro.experiments.registry import get_experiment

    return get_experiment(payload["experiment"])(None)


def execute_experiment(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one registered experiment -> a JSON claims summary.

    Payload: ``{"experiment": "<id>"}``.  Experiments are not
    content-addressed (their outputs are reports, not cells), so they ride
    the queue and pool but never the cache.
    """
    from repro.experiments.registry import get_experiment

    result = get_experiment(payload["experiment"])(None)
    return {
        "experiment": result.experiment_id,
        "title": result.title,
        "claims": len(result.claims),
        "claims_held": result.claims_held,
        "failed_claims": [
            claim.description for claim in result.claims if not claim.holds
        ],
    }
