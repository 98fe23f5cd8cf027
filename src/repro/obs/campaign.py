"""Campaign runner, diff/regression engine, and suite dashboards.

A *campaign* executes a set of (workflow, configuration-set, calibration)
cells — by default the full 18-workflow paper suite of
:mod:`repro.apps.suite` — and appends one record per cell to the
persistent :class:`~repro.obs.store.CampaignStore`.  Each cell:

* runs every scheduler configuration under full observability
  (:func:`repro.obs.capture.observe_workflow`);
* derives its deterministic id from the PR-2 run manifests
  (:func:`repro.obs.store.cell_id_from_manifests`);
* records makespans, phase breakdowns, PMEM byte counters, the winner and
  the paper expectation in the byte-stable ``deterministic`` payload; and
* records wall-clock self-metrics (and cProfile hotspots under
  ``profile=True``) in the ``host`` payload
  (:mod:`repro.obs.hostmetrics`).

On top of the store sit the analyses Balsam-style campaign databases make
routine: :func:`diff_campaigns` (makespan drift, winner flips, paper-claim
status changes between two campaigns) and :func:`campaign_report`
(markdown dashboard: config × workflow heatmap, hit rate vs the paper,
host cost).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.apps.suite import (
    CONCURRENCY_LEVELS,
    FAMILIES,
    PAPER_EXPECTATIONS,
    build_workflow,
)
from repro.core.configs import ALL_CONFIGS, SchedulerConfig
from repro.errors import ConfigurationError
from repro.metrics.analysis import best_config
from repro.obs.capture import Observation, observe_workflow
from repro.obs.hostmetrics import (
    HostMeter,
    HostMetrics,
    aggregate_host_metrics,
    host_metrics_from_record,
    simulated_host_metrics,
)
from repro.obs.manifest import calibration_hash
from repro.obs.store import (
    PROVENANCE_FIELDS,
    CampaignStore,
    StoredCampaign,
    StoredCell,
    canonical_json,
    cell_id_for_spec,
    cell_id_from_manifests,
    manifest_determinism_payload,
)
from repro.pmem.calibration import DEFAULT_CALIBRATION, OptaneCalibration
from repro.units import fmt_bytes, fmt_time
from repro.workflow.spec import WorkflowSpec

#: Relative makespan change below which a drift is noise, not a regression.
DEFAULT_DRIFT_THRESHOLD = 0.02

#: A cell is one (family, ranks) suite coordinate.
CellKeyPair = Tuple[str, int]


def cell_key(family: str, ranks: int) -> str:
    """Canonical store key for one suite coordinate."""
    return f"{family}@{ranks}"


def parse_cell_key(key: str) -> CellKeyPair:
    family, _, ranks = key.rpartition("@")
    if not family:
        raise ConfigurationError(f"malformed cell key {key!r}")
    return family, int(ranks)


# ----------------------------------------------------------------------
# Suite presets.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuitePreset:
    """A named subset of the paper suite plus an iteration override."""

    name: str
    cells: Tuple[CellKeyPair, ...]
    iterations: Optional[int] = None
    description: str = ""


def _full_cells() -> Tuple[CellKeyPair, ...]:
    return tuple(
        (family, ranks) for family in FAMILIES for ranks in CONCURRENCY_LEVELS
    )


#: ``--suite`` choices: the reduced CI campaign and the full paper suite.
SUITE_PRESETS: Dict[str, SuitePreset] = {
    "micro": SuitePreset(
        name="micro",
        cells=(("micro-64mb", 8), ("micro-2k", 8)),
        iterations=2,
        description="both microbenchmarks at 8 ranks, 2 iterations (CI-sized)",
    ),
    "full": SuitePreset(
        name="full",
        cells=_full_cells(),
        description="the full 18-workflow paper suite (§IV-C)",
    ),
}


# ----------------------------------------------------------------------
# Running a campaign.
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One executed cell, before/after storage."""

    key: str
    family: str
    ranks: int
    cell_id: str
    deterministic: Dict[str, Any]
    host: HostMetrics
    provenance: Dict[str, Any]

    @property
    def winner(self) -> str:
        return self.deterministic["winner"]

    @property
    def paper_best(self) -> Optional[str]:
        return self.deterministic.get("paper_best")

    @property
    def paper_hit(self) -> Optional[bool]:
        return self.deterministic.get("paper_hit")

    @property
    def bottleneck(self) -> Optional[Dict[str, Any]]:
        """The winner config's attribution summary (None if unattributed)."""
        from repro.obs.explain import cell_bottleneck

        return cell_bottleneck(self.deterministic)

    def stored(self) -> StoredCell:
        return StoredCell(
            cell_id=self.cell_id,
            key=self.key,
            deterministic=self.deterministic,
            host=self.host.as_record(),
            provenance=self.provenance,
        )


@dataclass
class CampaignRun:
    """Outcome of :func:`run_campaign` (also rehydratable from the store)."""

    name: str
    suite: str
    cells: List[CellResult] = field(default_factory=list)

    @property
    def hit_rate(self) -> Tuple[int, int]:
        """(cells matching the paper winner, cells with an expectation)."""
        expected = [c for c in self.cells if c.paper_hit is not None]
        return sum(1 for c in expected if c.paper_hit), len(expected)

    def host_total(self) -> HostMetrics:
        return aggregate_host_metrics(c.host for c in self.cells)


def _config_payload(observation: Observation) -> Dict[str, Any]:
    """The deterministic per-configuration slice of a cell payload.

    Includes the compact critical-path attribution summary
    (:func:`repro.obs.explain.attribution_record`) so stored campaigns
    stay explainable after the full trace is gone — cell ids are hashed
    from manifests alone, so the extra key never perturbs identity.  The
    summary comes from :func:`repro.obs.explain.attribute`, which walks
    the trace records: no span tree and no utilization table is built.
    """
    from repro.obs.explain import attribute, attribution_record

    result = observation.result
    probes = observation.probes
    return {
        "attribution": attribution_record(attribute(observation)),
        "makespan": result.makespan,
        "writer_runtime": result.writer_runtime,
        "reader_runtime": result.reader_runtime,
        "writer_span": list(result.writer_span),
        "reader_span": list(result.reader_span),
        "bytes_written": result.bytes_written,
        "bytes_read": result.bytes_read,
        "phases": {
            "writer": dataclasses.asdict(result.writer_phases),
            "reader": dataclasses.asdict(result.reader_phases),
        },
        "pmem_bytes": {
            "write": probes.counter_total("pmem.payload_bytes", direction="write"),
            "read": probes.counter_total("pmem.payload_bytes", direction="read"),
        },
        "channel": {
            "versions_published": probes.counter_total(
                "channel.versions_published"
            ),
            "version_waits": probes.counter_total("channel.version_waits"),
        },
        "manifest": manifest_determinism_payload(observation.manifest.as_dict()),
    }


def results_from_config_payloads(
    workflow_name: str, config_payloads: Dict[str, Dict[str, Any]]
) -> List["Any"]:
    """Rebuild :class:`~repro.metrics.results.RunResult` objects from the
    stored per-config payloads (in payload order).

    This is the inverse of :func:`_config_payload` for the fields a
    :class:`~repro.core.autotune.TuningReport` needs; :func:`run_spec_cell`
    picks the cell's winner from them.
    """
    from repro.metrics.results import PhaseBreakdown, RunResult

    return [
        RunResult(
            workflow_name=workflow_name,
            config_label=label,
            makespan=entry["makespan"],
            writer_span=tuple(entry["writer_span"]),
            reader_span=tuple(entry["reader_span"]),
            writer_phases=PhaseBreakdown(**entry["phases"]["writer"]),
            reader_phases=PhaseBreakdown(**entry["phases"]["reader"]),
            bytes_written=entry["bytes_written"],
            bytes_read=entry["bytes_read"],
        )
        for label, entry in config_payloads.items()
    ]


def run_spec_cell(
    spec: WorkflowSpec,
    configs: Sequence[SchedulerConfig] = ALL_CONFIGS,
    cal: OptaneCalibration = DEFAULT_CALIBRATION,
    family: Optional[str] = None,
    ranks: Optional[int] = None,
    profile: bool = False,
    profile_top: Optional[int] = None,
    on_observation: Optional[Callable[[Observation], None]] = None,
) -> CellResult:
    """Execute one cell for an already-built spec (suite member or not).

    ``family``/``ranks`` default to the spec's own name and rank count —
    pass the suite coordinate when the spec came from
    :func:`~repro.apps.suite.build_workflow` so paper expectations attach.

    ``on_observation`` fires after each configuration's run completes —
    the service worker's telemetry hook.  The callback sees the finished
    :class:`~repro.obs.capture.Observation`; nothing it does can alter the
    deterministic payload.
    """
    if not configs:
        raise ConfigurationError("a campaign cell needs at least one config")
    family = family if family is not None else spec.name
    ranks = ranks if ranks is not None else spec.ranks
    meter_kwargs: Dict[str, Any] = {"profile": profile}
    if profile_top is not None:
        meter_kwargs["profile_top"] = profile_top
    observations: List[Observation] = []
    with HostMeter(**meter_kwargs) as meter:
        for config in configs:
            # Nothing a cell stores reads the per-event series.
            observation = observe_workflow(spec, config, per_event=False, cal=cal)
            if on_observation is not None:
                on_observation(observation)
            observations.append(observation)
    config_payloads = {
        obs.manifest.config: _config_payload(obs) for obs in observations
    }
    manifests = [obs.manifest.as_dict() for obs in observations]
    winner = best_config(results_from_config_payloads(spec.name, config_payloads))
    expectation = PAPER_EXPECTATIONS.get((family, ranks))
    deterministic: Dict[str, Any] = {
        "family": family,
        "ranks": ranks,
        "workflow": spec.name,
        "iterations": spec.iterations,
        "stack": spec.stack_name,
        "calibration_sha256": calibration_hash(cal),
        "configs": config_payloads,
        "winner": winner,
        "paper_best": expectation[0] if expectation else None,
        "figure": expectation[1] if expectation else None,
        "paper_hit": (winner == expectation[0]) if expectation else None,
    }
    provenance = {key: manifests[0][key] for key in PROVENANCE_FIELDS}
    return CellResult(
        key=cell_key(family, ranks),
        family=family,
        ranks=ranks,
        cell_id=cell_id_from_manifests(manifests),
        deterministic=deterministic,
        host=simulated_host_metrics(meter, observations),
        provenance=provenance,
    )


def run_cell(
    family: str,
    ranks: int,
    configs: Sequence[SchedulerConfig] = ALL_CONFIGS,
    cal: OptaneCalibration = DEFAULT_CALIBRATION,
    iterations: Optional[int] = None,
    stack_name: str = "nvstream",
    matmul_dim: Optional[int] = None,
    profile: bool = False,
    profile_top: Optional[int] = None,
    on_observation: Optional[Callable[[Observation], None]] = None,
) -> CellResult:
    """Execute one campaign cell: every configuration of one workflow."""
    if not configs:
        raise ConfigurationError("a campaign cell needs at least one config")
    spec: WorkflowSpec = build_workflow(
        family,
        ranks,
        stack_name=stack_name,
        iterations=iterations,
        matmul_dim=matmul_dim,
    )
    return run_spec_cell(
        spec,
        configs=configs,
        cal=cal,
        family=family,
        ranks=ranks,
        profile=profile,
        profile_top=profile_top,
        on_observation=on_observation,
    )


def _progress_line(cell: CellResult) -> str:
    return (
        f"{cell.key}: winner {cell.winner}"
        + (
            f" (paper {cell.paper_best}, "
            + ("hit" if cell.paper_hit else "MISS")
            + ")"
            if cell.paper_best
            else ""
        )
        + f"  [{cell.host.wall_seconds:.2f}s host]"
    )


def _run_through_service(
    cells: Sequence[CellKeyPair],
    suite: str,
    jobs: int,
    configs: Sequence[SchedulerConfig],
    cal: OptaneCalibration,
    **cell_kwargs: Any,
) -> List[CellResult]:
    """Execute *cells* in one pass of a throwaway service with *jobs* workers.

    The service is the repository's one parallel executor: it brings the
    worker pool's timeouts, crash detection and retries.  Its queue and
    campaigns live in a temporary directory; only the cells come back.  Raises :class:`ConfigurationError` with the last error of the
    first job that ends ``failed``.
    """
    import tempfile

    from repro.service.queue import STATE_FAILED
    from repro.service.scheduler import RESULTS_CAMPAIGN, ServiceScheduler

    with tempfile.TemporaryDirectory() as root:
        scheduler = ServiceScheduler(root=root, jobs=jobs, cal=cal)
        scheduler.submit_suite(
            suite,
            cells=cells,
            configs=[config.label for config in configs],
            calibration=dataclasses.asdict(cal),
            **cell_kwargs,
        )
        scheduler.run()
        for job in scheduler.queue.load():
            if job.state == STATE_FAILED:
                last_error = job.detail.get("last_error") or {}
                raise ConfigurationError(
                    f"campaign cell {job.payload['family']}@"
                    f"{job.payload['ranks']} failed: "
                    f"{last_error.get('error') or job.detail}"
                )
        stored = scheduler.store.read(RESULTS_CAMPAIGN).cells
    return [_cell_from_stored(cell) for cell in stored]


def run_campaign(
    suite: str = "micro",
    name: Optional[str] = None,
    store: Optional[CampaignStore] = None,
    cells: Optional[Sequence[CellKeyPair]] = None,
    configs: Sequence[SchedulerConfig] = ALL_CONFIGS,
    cal: OptaneCalibration = DEFAULT_CALIBRATION,
    iterations: Optional[int] = None,
    stack_name: str = "nvstream",
    matmul_dim: Optional[int] = None,
    profile: bool = False,
    profile_top: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> CampaignRun:
    """Run a whole campaign, optionally persisting it into *store*.

    ``suite`` picks a :data:`SUITE_PRESETS` entry; ``cells`` overrides the
    preset's cell list (for sweeps), ``iterations`` its iteration count.
    With ``jobs > 1`` the cells are submitted to a throwaway
    :class:`~repro.service.scheduler.ServiceScheduler` and executed in one
    service pass with *jobs* worker processes.

    Persistence is order-independent: cell ids are content hashes computed
    *before* running (from the run manifests), and cells are stored sorted
    by cell id — so the stored deterministic payload is byte-identical
    whatever order workers finish in, and identical to a serial run.  With
    a store and ``jobs=1`` each cell is appended as it completes (in cell-id
    order), so a crashed campaign keeps its finished prefix.  Returns the
    in-memory :class:`CampaignRun` (cells in cell-id order) either way.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    preset = SUITE_PRESETS.get(suite)
    if preset is None and cells is None:
        raise ConfigurationError(
            f"unknown suite {suite!r}; choices: {sorted(SUITE_PRESETS)} "
            "(or pass explicit cells)"
        )
    chosen_cells = tuple(cells) if cells is not None else preset.cells
    chosen_iterations = (
        iterations
        if iterations is not None
        else (preset.iterations if preset else None)
    )
    # Pre-compute every cell's content id (manifests only, no simulation)
    # and fix the storage order up front: sorted by cell id.  Planning
    # builds every spec, so a bad argument fails here, before a campaign
    # file (or an auto-name) is spent on it.
    cell_kwargs = dict(
        stack_name=stack_name,
        iterations=chosen_iterations,
        matmul_dim=matmul_dim,
    )
    planned = sorted(
        (
            cell_id_for_spec(
                build_workflow(family, ranks, **cell_kwargs), configs, cal
            ),
            family,
            ranks,
        )
        for family, ranks in chosen_cells
    )
    if store is not None:
        if name is None:
            name = store.next_name(suite)
        store.create(
            name,
            {
                "suite": suite,
                "cells_planned": len(chosen_cells),
                "configs": [config.label for config in configs],
                "iterations_override": chosen_iterations,
                "calibration_sha256": calibration_hash(cal),
                "profiled": profile,
            },
        )
    run = CampaignRun(name=name or f"{suite}-unsaved", suite=suite)
    run_cell_kwargs = dict(
        configs=tuple(configs),
        cal=cal,
        profile=profile,
        profile_top=profile_top,
        **cell_kwargs,
    )
    if jobs > 1 and planned:
        # Completion order is nondeterministic; storage order is not.
        cells_done: Iterable[CellResult] = sorted(
            _run_through_service(
                [(family, ranks) for _cell_id, family, ranks in planned],
                suite=suite,
                jobs=jobs,
                **run_cell_kwargs,
            ),
            key=lambda cell: cell.cell_id,
        )
    else:
        cells_done = (
            run_cell(family, ranks, **run_cell_kwargs)
            for _cell_id, family, ranks in planned
        )
    for cell in cells_done:
        run.cells.append(cell)
        if store is not None:
            store.append_cell(name, cell.stored())
        if progress is not None:
            progress(_progress_line(cell))
    return run


# ----------------------------------------------------------------------
# Rehydration: stored campaign -> comparable view.
# ----------------------------------------------------------------------
def campaign_from_store(stored: StoredCampaign) -> CampaignRun:
    """Rebuild a :class:`CampaignRun` view from a stored campaign."""
    return CampaignRun(
        name=stored.name,
        suite=stored.header.get("suite", "custom"),
        cells=[_cell_from_stored(cell) for cell in stored.cells],
    )


def _cell_from_stored(cell: StoredCell) -> CellResult:
    """Rebuild one :class:`CellResult` from its stored record."""
    deterministic = cell.deterministic
    return CellResult(
        key=cell.key,
        family=deterministic.get("family", cell.key),
        ranks=int(deterministic.get("ranks", 0)),
        cell_id=cell.cell_id,
        deterministic=deterministic,
        host=host_metrics_from_record(cell.host),
        provenance=cell.provenance,
    )


# ----------------------------------------------------------------------
# Diff / regression engine.
# ----------------------------------------------------------------------
@dataclass
class MakespanDrift:
    key: str
    config: str
    before: float
    after: float
    #: Attribution sentence for the bucket that moved most ("drain on
    #: pmem[1] grew 38.2% (...)"); None when neither cell is attributed.
    explanation: Optional[str] = None

    @property
    def relative(self) -> float:
        return (self.after - self.before) / self.before if self.before else 0.0


@dataclass
class WinnerFlip:
    key: str
    before: str
    after: str
    paper_best: Optional[str]
    #: Why the flip happened, from the before-winner's attribution shift.
    #: Always populated by :func:`diff_campaigns` (with an explicit
    #: "no attribution recorded" fallback) so every flip gets a line.
    explanation: str = "no attribution recorded for either campaign"

    @property
    def vs_paper(self) -> str:
        if self.paper_best is None:
            return "no paper expectation"
        if self.after == self.paper_best:
            return f"now matches paper ({self.paper_best})"
        if self.before == self.paper_best:
            return f"was the paper winner ({self.paper_best}), now is not"
        return f"paper expects {self.paper_best}"


@dataclass
class ClaimChange:
    key: str
    before_hit: Optional[bool]
    after_hit: Optional[bool]

    @property
    def regressed(self) -> bool:
        return bool(self.before_hit) and not self.after_hit


@dataclass
class CampaignDiff:
    """Everything that changed between two campaigns' deterministic payloads."""

    name_a: str
    name_b: str
    threshold: float
    #: Coverage, never regressions: the keys of cells only one campaign
    #: ran, then ``"<key> [<label>]"`` for each config only one of two
    #: matched cells ran.
    only_in_a: List[str] = field(default_factory=list)
    only_in_b: List[str] = field(default_factory=list)
    drifts: List[MakespanDrift] = field(default_factory=list)
    #: Configs within the threshold whose attribution still moved: shown
    #: for the record, never counted as regressions.
    shifts: List[MakespanDrift] = field(default_factory=list)
    winner_flips: List[WinnerFlip] = field(default_factory=list)
    claim_changes: List[ClaimChange] = field(default_factory=list)
    calibration_changed: List[str] = field(default_factory=list)
    #: Cells whose id differs under the same stored calibration hash (a
    #: different config set or iteration count, say).
    inputs_changed: List[str] = field(default_factory=list)
    #: Coverage, never regressions: ``"<key>: winner A -> B not compared
    #: (...)"`` for each cell whose two winners were not both run by both
    #: campaigns, so the winners say nothing about each other.
    winners_not_compared: List[str] = field(default_factory=list)
    #: Cells whose deterministic payloads are byte-equal.
    identical_cells: int = 0
    #: Cells that changed, but by no more than the threshold and without
    #: a winner flip, claim change or calibration change.
    within_threshold_cells: int = 0

    @property
    def regressions(self) -> int:
        """Winner flips + paper-claim regressions + over-threshold drifts."""
        return (
            len(self.winner_flips)
            + sum(1 for change in self.claim_changes if change.regressed)
            + len(self.drifts)
        )

    # -- rendering ------------------------------------------------------
    def render_text(self) -> str:
        lines = [
            f"campaign diff: {self.name_a} -> {self.name_b} "
            f"(drift threshold {self.threshold:.1%})"
        ]
        for key in self.only_in_a:
            lines.append(f"-- {key}: only in {self.name_a}")
        for key in self.only_in_b:
            lines.append(f"++ {key}: only in {self.name_b}")
        for key in self.calibration_changed:
            lines.append(f"~~ {key}: calibration changed (cell id differs)")
        for key in self.inputs_changed:
            lines.append(f"~~ {key}: inputs changed, same calibration (cell id differs)")
        for line in self.winners_not_compared:
            lines.append(f"?? {line}")
        for flip in self.winner_flips:
            lines.append(
                f"!! {flip.key}: winner {flip.before} -> {flip.after} "
                f"({flip.vs_paper})"
            )
            lines.append(f"   why: {flip.explanation}")
        for change in self.claim_changes:
            direction = "regressed" if change.regressed else "recovered"
            lines.append(
                f"!! {change.key}: paper claim {direction} "
                f"({change.before_hit} -> {change.after_hit})"
            )
        for marker, drifts in ((">>", self.drifts), ("..", self.shifts)):
            for drift in drifts:
                lines.append(
                    f"{marker} {drift.key} [{drift.config}]: makespan "
                    f"{fmt_time(drift.before)} -> {fmt_time(drift.after)} "
                    f"({drift.relative:+.1%})"
                )
                if drift.explanation:
                    lines.append(f"   why: {drift.explanation}")
        lines.append(
            f"{self.identical_cells} identical cell(s), "
            f"{self.within_threshold_cells} within-threshold cell(s), "
            f"{self.regressions} regression(s)"
        )
        return "\n".join(lines)


def check_drift_threshold(threshold: float) -> None:
    """Raise :class:`ConfigurationError` unless *threshold* is finite and >= 0.

    Every drift test is ``> threshold``, so NaN or +inf would report no
    drift at all, and a negative value would count identical cells.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigurationError(
            f"drift threshold must be finite and >= 0, got {threshold}"
        )


def diff_campaigns(
    a: CampaignRun,
    b: CampaignRun,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
) -> CampaignDiff:
    """Compare two campaigns cell by cell (matched on ``family@ranks``).

    Cells are matched by suite coordinate, *not* cell id, so a calibration
    change shows up as drift/flips on the same cells (plus a calibration
    note) rather than as wholesale removal + addition; a cell id that
    changed under the same stored calibration hash gets an inputs note
    instead.  Configs are matched by label: one run in only one campaign
    is listed as coverage, and one whose makespan stays within the
    threshold but whose attribution moved is listed as a shift.  A winner
    flip (and the paper-claim change it carries) counts only when both
    campaigns ran both winners; otherwise the differing winners are listed
    as coverage too.  A cell with no reported change counts as identical
    only when its deterministic payload is byte-equal; otherwise it counts
    as within the threshold.
    """
    from repro.obs.explain import drift_explanation, flip_explanation

    check_drift_threshold(threshold)
    diff = CampaignDiff(name_a=a.name, name_b=b.name, threshold=threshold)
    cells_a = {cell.key: cell for cell in a.cells}
    cells_b = {cell.key: cell for cell in b.cells}
    diff.only_in_a = sorted(set(cells_a) - set(cells_b))
    diff.only_in_b = sorted(set(cells_b) - set(cells_a))
    for key in sorted(set(cells_a) & set(cells_b)):
        cell_a, cell_b = cells_a[key], cells_b[key]
        changed = False
        if cell_a.cell_id != cell_b.cell_id:
            calibration_a = cell_a.deterministic.get("calibration_sha256")
            calibration_b = cell_b.deterministic.get("calibration_sha256")
            if calibration_a != calibration_b:
                diff.calibration_changed.append(key)
            else:
                diff.inputs_changed.append(key)
            changed = True
        configs_a = cell_a.deterministic.get("configs", {})
        configs_b = cell_b.deterministic.get("configs", {})
        for label in sorted(set(configs_a) - set(configs_b)):
            diff.only_in_a.append(f"{key} [{label}]")
        for label in sorted(set(configs_b) - set(configs_a)):
            diff.only_in_b.append(f"{key} [{label}]")
        for label in sorted(set(configs_a) & set(configs_b)):
            before = configs_a[label].get("makespan")
            after = configs_b[label].get("makespan")
            if before is None or after is None:
                continue
            drift = MakespanDrift(
                key=key,
                config=label,
                before=before,
                after=after,
                explanation=drift_explanation(configs_a[label], configs_b[label]),
            )
            if before > 0 and abs(after - before) / before > threshold:
                diff.drifts.append(drift)
                changed = True
            elif drift.explanation is not None:
                diff.shifts.append(drift)
        unrun = next(
            (
                f"{label} was not run in {name}"
                for label in (cell_a.winner, cell_b.winner)
                for name, configs in ((a.name, configs_a), (b.name, configs_b))
                if label not in configs
            ),
            None,
        )
        if cell_a.winner != cell_b.winner and unrun is not None:
            diff.winners_not_compared.append(
                f"{key}: winner {cell_a.winner} -> {cell_b.winner} "
                f"not compared ({unrun})"
            )
            changed = True
        elif cell_a.winner != cell_b.winner:
            diff.winner_flips.append(
                WinnerFlip(
                    key=key,
                    before=cell_a.winner,
                    after=cell_b.winner,
                    paper_best=cell_b.paper_best,
                    explanation=flip_explanation(
                        cell_a.winner, cell_b.winner, configs_a, configs_b
                    ),
                )
            )
            changed = True
        if unrun is None and cell_a.paper_hit != cell_b.paper_hit:
            diff.claim_changes.append(
                ClaimChange(
                    key=key,
                    before_hit=cell_a.paper_hit,
                    after_hit=cell_b.paper_hit,
                )
            )
            changed = True
        if changed:
            continue
        if canonical_json(cell_a.deterministic) == canonical_json(
            cell_b.deterministic
        ):
            diff.identical_cells += 1
        else:
            diff.within_threshold_cells += 1
    return diff


# ----------------------------------------------------------------------
# Dashboards.
# ----------------------------------------------------------------------
def _heatmap_cell(makespan: float, best: float, is_winner: bool) -> str:
    if best <= 0:
        return "-"
    normalized = makespan / best
    text = f"{normalized:.2f}"
    return f"**{text}**" if is_winner else text


def _memo_warnings(run: CampaignRun) -> List[str]:
    """Cells where the solver reuses *nothing* despite being exercised.

    GTC-class workflows were the ROADMAP's "next 10×" target because
    BENCH_simcore once showed their memo hit rate pinned at 0.0.  The
    share-state tokens fixed that: read-only solve phases now memo-hit
    across the congestion EWMA's drift.  A GTC cell with memo misses but
    no hits — every solve recomputed from scratch — still warns.
    """
    warnings = []
    for cell in run.cells:
        if not cell.key.startswith("gtc"):
            continue
        misses = cell.host.solver_memo_misses
        if misses > 0 and cell.host.solver_memo_hits == 0:
            warnings.append(
                f"{cell.key}: solver reused no work "
                f"(0 memo hits / {misses:.0f} misses) — every flow solve "
                "recomputed from scratch"
            )
    return warnings


def _heatmap_columns(run: CampaignRun) -> List[str]:
    """Config labels in Table I (:data:`ALL_CONFIGS`) order, others sorted after.

    A stored payload's keys come back sorted (``canonical_json``), so the
    order must not come from the cells, or a campaign read back from the
    store would print other columns than the run that wrote it.
    """
    labels = {
        label for cell in run.cells for label in cell.deterministic.get("configs", {})
    }
    table_one = [config.label for config in ALL_CONFIGS if config.label in labels]
    return table_one + sorted(labels - set(table_one))


def campaign_report(run: CampaignRun) -> str:
    """The markdown suite dashboard: heatmap, paper hit rate, host cost."""
    config_labels = _heatmap_columns(run)
    hits, expected = run.hit_rate
    host = run.host_total()
    memo_warnings = _memo_warnings(run)
    memo_lookups = host.solver_memo_hits + host.solver_memo_misses
    head = f"{len(run.cells)} cell(s)"
    if expected:
        head += f"; paper-winner hit rate **{hits}/{expected}**"
    # Synthetic/imported runs without solver counters skip the memo note.
    if memo_lookups:
        head += (
            f"; solver memo hit rate {host.memo_hit_rate:.1%} "
            f"({host.solver_memo_hits:.0f}/{memo_lookups:.0f})"
        )
    lines = [
        f"# Campaign `{run.name}` ({run.suite} suite)",
        "",
        head + ".",
        "",
    ]
    for warning in memo_warnings:
        lines.append(f"> **Warning:** {warning}")
    if memo_warnings:
        lines.append("")
    lines += [
        "## Runtime heatmap (normalized to each cell's best config)",
        "",
        "| cell | " + " | ".join(config_labels) + " | winner | paper |",
        "|---|" + "---|" * (len(config_labels) + 2),
    ]
    for cell in run.cells:
        configs = cell.deterministic.get("configs", {})
        makespans = {label: entry["makespan"] for label, entry in configs.items()}
        best = min(makespans.values()) if makespans else 0.0
        row = [cell.key]
        for label in config_labels:
            makespan = makespans.get(label)
            row.append(
                _heatmap_cell(makespan, best, label == cell.winner)
                if makespan is not None
                else "-"
            )
        paper = cell.paper_best or "-"
        if cell.paper_hit is True:
            paper += " ✓"
        elif cell.paper_hit is False:
            paper += " ✗"
        row += [cell.winner, paper]
        lines.append("| " + " | ".join(row) + " |")
    lines += [
        "",
        "## Host cost",
        "",
        "| metric | value |",
        "|---|---|",
        f"| wall seconds (total) | {host.wall_seconds:.2f} |",
        f"| simulated seconds (total) | {host.simulated_seconds:.2f} |",
        f"| sim-seconds / wall-second | {host.sim_seconds_per_wall_second:.1f} |",
        f"| engine events | {host.events_executed:.0f} |",
        f"| events / wall-second | {host.events_per_wall_second:.0f} |",
        f"| flow recomputations | {host.flow_recomputes:.0f} |",
        f"| solver iterations | {host.solver_iterations:.0f} |",
        f"| solver classes (summed) | {host.solver_classes:.0f} |",
        f"| memo hit rate | {host.memo_hit_rate:.1%} "
        f"({host.solver_memo_hits:.0f}/{memo_lookups:.0f}) |",
        f"| recomputes coalesced | {host.recomputes_coalesced:.0f} |",
        f"| solves at iteration cap | {host.solves_at_cap:.0f} |",
        f"| peak RSS | {fmt_bytes(host.peak_rss_bytes)} |",
    ]
    if host.profiled:
        lines.append(f"| peak tracemalloc bytes | {host.peak_tracemalloc_bytes} |")
    lines.append("")
    if host.hotspots:
        lines += [
            "## Hotspots (aggregated cProfile, by cumulative time)",
            "",
            "| function | calls | tottime (s) | cumtime (s) |",
            "|---|---|---|---|",
        ]
        lines += [
            f"| `{spot.function}` | {spot.calls} "
            f"| {spot.tottime:.3f} | {spot.cumtime:.3f} |"
            for spot in host.hotspots
        ]
        lines.append("")
    return "\n".join(lines)
