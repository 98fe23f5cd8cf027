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
status changes between two campaigns), :func:`campaign_report` (markdown
dashboard: config × workflow heatmap, hit rate vs the paper, host cost)
and :func:`bench_record` (the ``BENCH_campaign.json`` performance
trajectory every subsequent optimization PR measures against).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    threaded_host_metrics,
)
from repro.obs.manifest import calibration_hash
from repro.obs.store import (
    PROVENANCE_FIELDS,
    CampaignStore,
    StoredCampaign,
    StoredCell,
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
    from manifests alone, so the extra key never perturbs identity.
    """
    from repro.obs.explain import attribution_record, explain_observation

    result = observation.result
    probes = observation.probes
    return {
        "attribution": attribution_record(explain_observation(observation)),
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
    :class:`~repro.core.autotune.TuningReport` needs — what lets the
    exhaustive tuner serve ``tune()`` straight from the service cache.
    """
    from repro.metrics.results import PhaseBreakdown, RunResult

    results = []
    for label, entry in config_payloads.items():
        try:
            results.append(
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
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"config payload {label!r} is missing {exc} — cached cells "
                "written before span fields were recorded cannot be "
                "rehydrated; clear the cache and re-run"
            ) from None
    return results


def results_from_cell_payload(deterministic: Dict[str, Any]) -> List["Any"]:
    """Rebuild the per-config run results of one stored cell payload."""
    return results_from_config_payloads(
        deterministic.get("workflow", deterministic.get("family", "?")),
        deterministic.get("configs", {}),
    )


def _assemble_cell(
    spec: WorkflowSpec,
    family: str,
    ranks: int,
    cal: OptaneCalibration,
    config_payloads: Dict[str, Dict[str, Any]],
    manifests: List[Dict[str, Any]],
    host: HostMetrics,
) -> CellResult:
    """Build a :class:`CellResult` from per-config slices (any origin)."""
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
        host=host,
        provenance=provenance,
    )


def run_spec_cell(
    spec: WorkflowSpec,
    configs: Sequence[SchedulerConfig] = ALL_CONFIGS,
    cal: OptaneCalibration = DEFAULT_CALIBRATION,
    family: Optional[str] = None,
    ranks: Optional[int] = None,
    profile: bool = False,
    profile_top: Optional[int] = None,
    jobs: int = 1,
    on_observation: Optional[Callable[[Observation], None]] = None,
) -> CellResult:
    """Execute one cell for an already-built spec (suite member or not).

    ``family``/``ranks`` default to the spec's own name and rank count —
    pass the suite coordinate when the spec came from
    :func:`~repro.apps.suite.build_workflow` so paper expectations attach.
    With ``jobs > 1`` the configurations are evaluated in parallel worker
    processes (the deterministic payload is byte-identical either way).

    ``on_observation`` fires after each configuration's run completes
    (serial path only) — the service worker's telemetry hook.  The
    callback sees the finished :class:`~repro.obs.capture.Observation`;
    nothing it does can alter the deterministic payload.
    """
    if not configs:
        raise ConfigurationError("a campaign cell needs at least one config")
    family = family if family is not None else spec.name
    ranks = ranks if ranks is not None else spec.ranks
    if jobs > 1 and not profile:
        from repro.service.pool import TaskSpec, WorkerPool
        from repro.service.tasks import execute_config

        pool = WorkerPool(execute_config, jobs=jobs)
        outcomes = pool.run(
            [
                TaskSpec(
                    task_id=config.label,
                    payload={"spec": spec, "config": config, "cal": cal},
                )
                for config in configs
            ]
        )
        failed = [o for o in outcomes if not o.ok]
        if failed:
            raise ConfigurationError(
                f"{len(failed)} config worker(s) failed for {spec.name}: "
                f"{failed[0].error}"
            )
        slices = [o.result for o in outcomes]
        return _assemble_cell(
            spec,
            family,
            ranks,
            cal,
            config_payloads={s["config"]: s["payload"] for s in slices},
            manifests=[s["manifest"] for s in slices],
            host=aggregate_host_metrics(
                host_metrics_from_record(s["host"]) for s in slices
            ),
        )
    meter_kwargs: Dict[str, Any] = {"profile": profile}
    if profile_top is not None:
        meter_kwargs["profile_top"] = profile_top
    observations: List[Observation] = []
    with HostMeter(**meter_kwargs) as meter:
        for config in configs:
            observation = observe_workflow(spec, config, cal=cal)
            if on_observation is not None:
                on_observation(observation)
            observations.append(observation)
    return _assemble_cell(
        spec,
        family,
        ranks,
        cal,
        config_payloads={
            obs.manifest.config: _config_payload(obs) for obs in observations
        },
        manifests=[obs.manifest.as_dict() for obs in observations],
        host=simulated_host_metrics(meter, observations),
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
    With ``jobs > 1`` cells are executed in parallel worker processes
    (via :mod:`repro.service`).

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
    # Pre-compute every cell's content id (manifests only, no simulation)
    # and fix the storage order up front: sorted by cell id.
    from repro.service.cache import cell_id_for_spec

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
    run_cell_kwargs = dict(
        configs=tuple(configs),
        cal=cal,
        profile=profile,
        profile_top=profile_top,
        **cell_kwargs,
    )
    if jobs > 1:
        from repro.service.pool import TaskSpec, WorkerPool
        from repro.service.tasks import execute_cell

        pool = WorkerPool(execute_cell, jobs=jobs)
        outcomes = pool.run(
            [
                TaskSpec(
                    task_id=cell_id,
                    payload=dict(family=family, ranks=ranks, **run_cell_kwargs),
                )
                for cell_id, family, ranks in planned
            ]
        )
        failed = [o for o in outcomes if not o.ok]
        if failed:
            raise ConfigurationError(
                f"{len(failed)} campaign worker(s) failed: {failed[0].error}"
            )
        # Completion order is nondeterministic; storage order is not.
        run.cells.extend(
            sorted((o.result for o in outcomes), key=lambda c: c.cell_id)
        )
        for cell in run.cells:
            if store is not None:
                store.append_cell(name, cell.stored())
            if progress is not None:
                progress(_progress_line(cell))
        return run
    for _cell_id, family, ranks in planned:
        cell = run_cell(family, ranks, **run_cell_kwargs)
        run.cells.append(cell)
        if store is not None:
            store.append_cell(name, cell.stored())
        if progress is not None:
            progress(_progress_line(cell))
    return run


def append_emulated_run(
    store: CampaignStore,
    campaign: str,
    spec: WorkflowSpec,
    config: SchedulerConfig,
    result: "Any",
) -> StoredCell:
    """Record a :mod:`repro.runtime.threaded` run as a campaign cell.

    The deterministic payload carries only the run's identity (an emulated
    run is wall-clock by nature, so its makespan lives in ``host``); the
    host payload uses the exact record shape simulated cells use, which is
    what makes the two kinds comparable in one store.
    """
    host = threaded_host_metrics(result)
    deterministic = {
        "family": spec.name,
        "ranks": spec.ranks,
        "workflow": spec.name,
        "iterations": spec.iterations,
        "stack": spec.stack_name,
        "calibration_sha256": None,
        "configs": {config.label: {"makespan": None, "emulated": True}},
        "winner": config.label,
        "paper_best": None,
        "figure": None,
        "paper_hit": None,
        "emulated": True,
    }
    digest = hashlib.sha256(
        f"emulated|{spec.name}|{spec.ranks}|{spec.iterations}|{config.label}".encode()
    )
    cell = StoredCell(
        cell_id=digest.hexdigest()[:16],
        key=f"{spec.name}@{spec.ranks}",
        deterministic=deterministic,
        host=host.as_record(),
        provenance={},
    )
    store.append_cell(campaign, cell)
    return cell


# ----------------------------------------------------------------------
# Rehydration: stored campaign -> comparable view.
# ----------------------------------------------------------------------
def campaign_from_store(stored: StoredCampaign) -> CampaignRun:
    """Rebuild a :class:`CampaignRun` view from a stored campaign."""
    run = CampaignRun(
        name=stored.name, suite=stored.header.get("suite", "custom")
    )
    for cell in stored.cells:
        deterministic = cell.deterministic
        run.cells.append(
            CellResult(
                key=cell.key,
                family=deterministic.get("family", cell.key),
                ranks=int(deterministic.get("ranks", 0)),
                cell_id=cell.cell_id,
                deterministic=deterministic,
                host=host_metrics_from_record(cell.host),
                provenance=cell.provenance,
            )
        )
    return run


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
    only_in_a: List[str] = field(default_factory=list)
    only_in_b: List[str] = field(default_factory=list)
    drifts: List[MakespanDrift] = field(default_factory=list)
    winner_flips: List[WinnerFlip] = field(default_factory=list)
    claim_changes: List[ClaimChange] = field(default_factory=list)
    calibration_changed: List[str] = field(default_factory=list)
    identical_cells: int = 0

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
        for drift in self.drifts:
            lines.append(
                f">> {drift.key} [{drift.config}]: makespan "
                f"{fmt_time(drift.before)} -> {fmt_time(drift.after)} "
                f"({drift.relative:+.1%})"
            )
            if drift.explanation:
                lines.append(f"   why: {drift.explanation}")
        lines.append(
            f"{self.identical_cells} identical cell(s), "
            f"{self.regressions} regression(s)"
        )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        lines = [
            f"# Campaign diff: `{self.name_a}` → `{self.name_b}`",
            "",
            f"Drift threshold {self.threshold:.1%} — "
            f"**{self.regressions} regression(s)**, "
            f"{self.identical_cells} identical cell(s).",
            "",
        ]
        if self.winner_flips:
            lines += [
                "## Winner flips",
                "",
                "| cell | before | after | vs paper | why |",
                "|---|---|---|---|---|",
            ]
            lines += [
                f"| {flip.key} | {flip.before} | {flip.after} "
                f"| {flip.vs_paper} | {flip.explanation} |"
                for flip in self.winner_flips
            ]
            lines.append("")
        if self.claim_changes:
            lines += ["## Paper-claim status changes", "", "| cell | before | after |", "|---|---|---|"]
            lines += [
                f"| {change.key} | {change.before_hit} | {change.after_hit} |"
                for change in self.claim_changes
            ]
            lines.append("")
        if self.drifts:
            lines += [
                "## Makespan drift",
                "",
                "| cell | config | before | after | drift | why |",
                "|---|---|---|---|---|---|",
            ]
            lines += [
                f"| {d.key} | {d.config} | {fmt_time(d.before)} "
                f"| {fmt_time(d.after)} | {d.relative:+.1%} "
                f"| {d.explanation or '-'} |"
                for d in self.drifts
            ]
            lines.append("")
        if self.only_in_a or self.only_in_b:
            lines.append("## Coverage changes")
            lines.append("")
            lines += [f"- `{key}` only in `{self.name_a}`" for key in self.only_in_a]
            lines += [f"- `{key}` only in `{self.name_b}`" for key in self.only_in_b]
            lines.append("")
        return "\n".join(lines)


def diff_campaigns(
    a: CampaignRun,
    b: CampaignRun,
    threshold: float = DEFAULT_DRIFT_THRESHOLD,
) -> CampaignDiff:
    """Compare two campaigns cell by cell (matched on ``family@ranks``).

    Cells are matched by suite coordinate, *not* cell id, so a calibration
    change shows up as drift/flips on the same cells (plus a calibration
    note) rather than as wholesale removal + addition.
    """
    from repro.obs.explain import drift_explanation, flip_explanation

    diff = CampaignDiff(name_a=a.name, name_b=b.name, threshold=threshold)
    cells_a = {cell.key: cell for cell in a.cells}
    cells_b = {cell.key: cell for cell in b.cells}
    diff.only_in_a = sorted(set(cells_a) - set(cells_b))
    diff.only_in_b = sorted(set(cells_b) - set(cells_a))
    for key in sorted(set(cells_a) & set(cells_b)):
        cell_a, cell_b = cells_a[key], cells_b[key]
        changed = False
        if cell_a.cell_id != cell_b.cell_id:
            diff.calibration_changed.append(key)
            changed = True
        configs_a = cell_a.deterministic.get("configs", {})
        configs_b = cell_b.deterministic.get("configs", {})
        for label in sorted(set(configs_a) & set(configs_b)):
            before = configs_a[label].get("makespan")
            after = configs_b[label].get("makespan")
            if before is None or after is None:
                continue
            if before > 0 and abs(after - before) / before > threshold:
                diff.drifts.append(
                    MakespanDrift(
                        key=key,
                        config=label,
                        before=before,
                        after=after,
                        explanation=drift_explanation(
                            configs_a[label], configs_b[label]
                        ),
                    )
                )
                changed = True
        if cell_a.winner != cell_b.winner:
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
        if cell_a.paper_hit != cell_b.paper_hit:
            diff.claim_changes.append(
                ClaimChange(
                    key=key,
                    before_hit=cell_a.paper_hit,
                    after_hit=cell_b.paper_hit,
                )
            )
            changed = True
        if not changed:
            diff.identical_cells += 1
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


def campaign_report(run: CampaignRun, markdown: bool = True) -> str:
    """The suite dashboard: heatmap, paper hit rate, host cost summary."""
    config_labels: List[str] = []
    for cell in run.cells:
        for label in cell.deterministic.get("configs", {}):
            if label not in config_labels:
                config_labels.append(label)
    lines: List[str] = []
    hits, expected = run.hit_rate
    host = run.host_total()
    memo_warnings = _memo_warnings(run)
    memo_lookups = host.solver_memo_hits + host.solver_memo_misses
    # Synthetic/imported runs without solver counters skip the memo note.
    memo_line = (
        f"solver memo hit rate {host.memo_hit_rate:.1%} "
        f"({host.solver_memo_hits:.0f}/{memo_lookups:.0f})"
        if memo_lookups
        else ""
    )
    if markdown:
        head = f"{len(run.cells)} cell(s)"
        if expected:
            head += f"; paper-winner hit rate **{hits}/{expected}**"
        if memo_line:
            head += f"; {memo_line}"
        lines += [
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
            makespans = {
                label: entry.get("makespan")
                for label, entry in configs.items()
                if entry.get("makespan") is not None
            }
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
            f"({host.solver_memo_hits:.0f}/"
            f"{host.solver_memo_hits + host.solver_memo_misses:.0f}) |",
            f"| recomputes coalesced | {host.recomputes_coalesced:.0f} |",
            f"| solves at iteration cap | {host.solves_at_cap:.0f} |",
            f"| peak RSS | {fmt_bytes(host.peak_rss_bytes)} |",
        ]
        if host.profiled:
            lines.append(
                f"| peak tracemalloc bytes | {host.peak_tracemalloc_bytes} |"
            )
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
    # Terminal rendering: compact fixed-width table.
    lines.append(f"== campaign {run.name} ({run.suite} suite) ==")
    if expected:
        lines.append(f"paper-winner hit rate: {hits}/{expected}")
    if memo_line:
        lines.append(memo_line)
    for warning in memo_warnings:
        lines.append(f"WARNING: {warning}")
    header = f"{'cell':<22}" + "".join(f"{label:>9}" for label in config_labels)
    lines.append(header + f"  {'winner':>8}  paper")
    for cell in run.cells:
        configs = cell.deterministic.get("configs", {})
        makespans = {
            label: entry.get("makespan")
            for label, entry in configs.items()
            if entry.get("makespan") is not None
        }
        best = min(makespans.values()) if makespans else 0.0
        row = f"{cell.key:<22}"
        for label in config_labels:
            makespan = makespans.get(label)
            if makespan is None or best <= 0:
                row += f"{'-':>9}"
            else:
                row += f"{makespan / best:>9.2f}"
        paper = cell.paper_best or "-"
        if cell.paper_hit is True:
            paper += " hit"
        elif cell.paper_hit is False:
            paper += " MISS"
        lines.append(row + f"  {cell.winner:>8}  {paper}")
    allocations = (
        f", peak tracemalloc {host.peak_tracemalloc_bytes} bytes"
        if host.profiled
        else ""
    )
    lines.append(
        f"host: {host.wall_seconds:.2f}s wall, "
        f"{host.sim_seconds_per_wall_second:.1f} sim-s/wall-s, "
        f"{host.events_executed:.0f} events, "
        f"{host.solves_at_cap:.0f} solves at cap, "
        f"peak RSS {fmt_bytes(host.peak_rss_bytes)}{allocations}"
    )
    for spot in host.hotspots:
        lines.append(
            f"  hot {spot.function}  x{spot.calls}  "
            f"tot {spot.tottime:.3f}s  cum {spot.cumtime:.3f}s"
        )
    return "\n".join(lines)


def bench_record(run: CampaignRun) -> Dict[str, Any]:
    """The ``BENCH_campaign.json`` payload: the recorded perf trajectory."""
    host = run.host_total()
    record: Dict[str, Any] = {
        "bench": "campaign",
        "campaign": run.name,
        "suite": run.suite,
        "cells": len(run.cells),
        "runs": host.runs,
        "wall_seconds_total": host.wall_seconds,
        "simulated_seconds_total": host.simulated_seconds,
        "sim_seconds_per_wall_second": host.sim_seconds_per_wall_second,
        "events_executed": host.events_executed,
        "events_per_wall_second": host.events_per_wall_second,
        "flow_recomputes": host.flow_recomputes,
        "solver_iterations": host.solver_iterations,
        "solver_classes": host.solver_classes,
        "solver_memo_hits": host.solver_memo_hits,
        "solver_memo_misses": host.solver_memo_misses,
        "memo_hit_rate": host.memo_hit_rate,
        "recomputes_coalesced": host.recomputes_coalesced,
        "solves_at_cap": host.solves_at_cap,
        "peak_rss_bytes": host.peak_rss_bytes,
    }
    if host.profiled:
        record["peak_tracemalloc_bytes"] = host.peak_tracemalloc_bytes
    return record
