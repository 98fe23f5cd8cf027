"""repro.obs — virtual-time observability for the simulator.

Everything the paper's analysis needs to *explain* a run — which rank
stalled on a version wait, which socket's PMEM saturated, how far achieved
bandwidth fell below the model ceiling — flows through this package:

* :mod:`repro.obs.probes` — the one instrument registry: counters,
  gauges and histograms, every mutator taking its caller's timestamp
  first.  The engine, the fluid-flow network, the PMEM devices and the
  NVStream channel emit into a :class:`~repro.obs.probes.ProbeRegistry`
  on **virtual** time; when no registry is attached the emission sites
  are a single ``is None`` branch (zero overhead).  The scheduling
  service feeds its own registry on wall time.
* :mod:`repro.obs.spans` — hierarchical spans (run -> rank -> iteration ->
  phase) layered on the existing :class:`~repro.sim.trace.Tracer`,
  OTel-inspired but clocked on ``engine.now``.
* :mod:`repro.obs.manifest` — run provenance: spec, configuration,
  calibration-table hash, git SHA and determinism inputs, so every
  exported trace can be reproduced.
* :mod:`repro.obs.capture` — :class:`~repro.obs.capture.Observation`
  (one observed run) and the capture context that wires observability
  into ``run_workflow`` and the experiments CLI.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loads in Perfetto /
  ``chrome://tracing``) for observed runs and for the stitched service
  trace that nests virtual-time simulation spans under wall-time
  lifecycle spans, JSONL span and metric dumps, and the trace schema
  validator.
* :mod:`repro.obs.report` — the text hot-phase report and run diffing.
* :mod:`repro.obs.store` — the persistent, append-only campaign store
  (JSONL under ``campaigns/``) with content-hashed cell ids and a strict
  deterministic / host / provenance payload split.
* :mod:`repro.obs.hostmetrics` — host-side self-metrics (wall clock, peak
  RSS; allocation peak and cProfile hotspots under ``--profile``); one
  of the two wall-clock readers in :mod:`repro.obs`.
* :mod:`repro.obs.telemetry` — the wall-specific half of the scheduling
  service's telemetry: cross-process lifecycle spans with trace ids, the
  JSONL snapshot (latency histograms with p50/p95/p99) and Prometheus
  text exposition formats, and their validators.
* :mod:`repro.obs.campaign` — the campaign runner over the paper suite,
  the regression diff engine (makespan drift, winner flips, paper-claim
  changes) and the markdown/terminal dashboards.
* :mod:`repro.obs.explain` — the trace-analytics engine: critical-path
  extraction over the trace records, blame attribution decomposing
  makespan into compute/barrier/drain/pmem/remote/dram buckets per
  resource and coupling, explainable campaign diffs ("flipped because
  pmem drain on socket 1 grew 38%") and per-campaign bottleneck ranking.
* ``python -m repro.obs`` — the ``export`` / ``summary`` / ``diff`` /
  ``validate`` / ``campaign`` / ``explain`` command line
  (:mod:`repro.obs.cli`).
"""

from repro.obs.campaign import (
    CampaignDiff,
    CampaignRun,
    SUITE_PRESETS,
    bench_record,
    campaign_from_store,
    campaign_report,
    diff_campaigns,
    run_campaign,
    run_cell,
)
from repro.obs.capture import Observation, capture_runs, observe_workflow
from repro.obs.explain import (
    BUCKETS,
    PathSegment,
    RunExplanation,
    attribute,
    attribution_from_phases,
    attribution_record,
    campaign_bottlenecks,
    critical_path,
    explain_observation,
    explain_report,
    utilization_rows,
    validate_explain_report,
)
from repro.obs.export import (
    chrome_trace,
    metrics_records,
    service_chrome_trace,
    span_records,
    to_json,
    to_jsonl,
    trace_makespans,
    validate_chrome_trace,
)
from repro.obs.hostmetrics import (
    HostMeter,
    HostMetrics,
    aggregate_host_metrics,
    simulated_host_metrics,
)
from repro.obs.manifest import RunManifest, build_manifest, calibration_hash
from repro.obs.probes import Counter, Gauge, Histogram, LatencyHistogram, ProbeRegistry
from repro.obs.report import diff_report, hot_phase_report
from repro.obs.spans import Span, build_spans
from repro.obs.store import CampaignStore, StoredCampaign, StoredCell
from repro.obs.telemetry import (
    SpanRecorder,
    mint_trace_id,
    prometheus_exposition,
    telemetry_snapshot,
    validate_exposition,
    validate_snapshot,
)

__all__ = [
    "BUCKETS",
    "CampaignDiff",
    "CampaignRun",
    "CampaignStore",
    "Counter",
    "Gauge",
    "Histogram",
    "HostMeter",
    "HostMetrics",
    "LatencyHistogram",
    "Observation",
    "PathSegment",
    "ProbeRegistry",
    "RunExplanation",
    "RunManifest",
    "SUITE_PRESETS",
    "Span",
    "SpanRecorder",
    "StoredCampaign",
    "StoredCell",
    "aggregate_host_metrics",
    "attribute",
    "attribution_from_phases",
    "attribution_record",
    "bench_record",
    "build_manifest",
    "build_spans",
    "calibration_hash",
    "campaign_bottlenecks",
    "campaign_from_store",
    "campaign_report",
    "critical_path",
    "capture_runs",
    "chrome_trace",
    "diff_campaigns",
    "diff_report",
    "explain_observation",
    "explain_report",
    "hot_phase_report",
    "metrics_records",
    "mint_trace_id",
    "observe_workflow",
    "prometheus_exposition",
    "run_campaign",
    "run_cell",
    "service_chrome_trace",
    "simulated_host_metrics",
    "span_records",
    "telemetry_snapshot",
    "to_json",
    "to_jsonl",
    "trace_makespans",
    "utilization_rows",
    "validate_chrome_trace",
    "validate_explain_report",
    "validate_exposition",
    "validate_snapshot",
]
