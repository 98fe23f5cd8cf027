"""The service worker's task function and its JSON payload helpers.

:func:`execute_job` is the one task the worker pool runs: module-level (so
:mod:`multiprocessing` can pickle it by reference), one dispatch envelope
in, one JSON record out.  It imports the heavier layers lazily inside the
call — partly to keep worker start cheap, partly to avoid import cycles
(``repro.obs.campaign`` submits its parallel cells to the service, and
these tasks call back into it).

Payloads are plain JSON — the queue persists them and hashes them into
job ids — so a worker and the scheduler never share objects.  Each worker
meters its own host cost: the records it returns carry per-worker
:mod:`repro.obs.hostmetrics` wall/memory readings, which is how a
parallel campaign's dashboard shows the speedup.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.service.queue import KIND_EXPERIMENT


def execute_job(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one queued job -> its JSON result record.

    *task* is the dispatch envelope the scheduler builds for each attempt:
    ``{"kind": <job kind>, "payload": <queued payload>, "telemetry":
    <trace context or None>}``.  Experiment jobs return a claims summary;
    cell jobs return a stored-cell record.
    """
    if task["kind"] == KIND_EXPERIMENT:
        return execute_experiment(task["payload"])
    return execute_cell_record(task["payload"], task.get("telemetry"))


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
        profile_top=payload.get("profile_top"),
    )


def execute_cell_record(
    payload: Dict[str, Any], context: Optional[Dict[str, str]] = None
) -> Dict[str, Any]:
    """Run one cell from a JSON job payload -> a JSON stored-cell record.

    A trace *context* (``{"trace_id", "parent_id"}``, minted by the
    scheduler at dispatch — never stored in the queue) switches on
    per-config tracing: each configuration's run is timed on the wall
    clock and returned as a ``simulate`` span, together with the run's
    virtual-time span records, under ``record["telemetry"]``.  The parent
    pops that key before caching/storing, so the deterministic record is
    byte-identical with tracing on or off.
    """
    from repro.obs.campaign import run_cell

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
