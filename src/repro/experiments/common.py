"""Shared infrastructure for the experiment modules.

An experiment produces an :class:`ExperimentResult`: rendered text artifacts
(the paper's bar charts as ASCII), raw per-configuration numbers (consumed
by tests and benchmarks), and a list of :class:`Claim` records comparing the
paper's quantified statements against the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.apps.suite import SuiteEntry
from repro.core.autotune import TuningReport
from repro.metrics.report import ascii_bar_chart
from repro.units import GiB


@dataclass(frozen=True)
class Claim:
    """One quantified paper statement checked against the simulation.

    Attributes
    ----------
    claim_id:
        Stable identifier ("fig4.winner.16", "fig5c.serial_gain", ...).
    description:
        The paper's statement in prose.
    paper_value:
        What the paper reports (free-form, e.g. "S-LocW", "11.5 %").
    measured_value:
        What our reproduction measures.
    holds:
        Whether the reproduction supports the claim (same winner /
        magnitude within the stated tolerance).
    note:
        Optional explanation, especially for claims that hold only in
        direction, not magnitude.
    """

    claim_id: str
    description: str
    paper_value: str
    measured_value: str
    holds: bool
    note: str = ""


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    description: str
    artifacts: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)
    claims: List[Claim] = field(default_factory=list)

    @property
    def claims_held(self) -> int:
        return sum(1 for c in self.claims if c.holds)

    def render(self) -> str:
        """Full text rendering (what the CLI prints)."""
        lines = [f"=== {self.experiment_id}: {self.title} ===", self.description, ""]
        for artifact in self.artifacts:
            lines.append(artifact)
            lines.append("")
        if self.claims:
            lines.append(
                f"Paper claims: {self.claims_held}/{len(self.claims)} reproduced"
            )
            for c in self.claims:
                status = "OK " if c.holds else "MISS"
                lines.append(
                    f"  [{status}] {c.claim_id}: {c.description} "
                    f"(paper: {c.paper_value}; measured: {c.measured_value})"
                    + (f" — {c.note}" if c.note else "")
                )
        return "\n".join(lines)


def panel_chart(entry: SuiteEntry, report: TuningReport) -> str:
    """Render one figure panel the way the paper draws it.

    Serial configurations get split writer/reader bars (``=`` writer,
    ``#`` reader), parallel ones a single bar — matching §V "Measurements".
    """
    makespans = {}
    splits = {}
    for label, result in sorted(report.results.items()):
        makespans[label] = result.makespan
        if result.is_serial:
            splits[label] = result.split_bar()
    title = (
        f"{entry.figure} — {entry.spec.name} "
        f"(total data {entry.spec.total_data_bytes() / GiB:.0f} GiB); "
        f"paper best: {entry.paper_best}"
    )
    return ascii_bar_chart(makespans, title=title, splits=splits)


def winner_claim(
    claim_id: str,
    entry: SuiteEntry,
    report: TuningReport,
) -> Claim:
    """Claim: the paper's optimal configuration wins this panel."""
    measured = report.comparison.best_label
    # Margin of the paper's pick over the simulated best (0 when they agree).
    regret = report.comparison.normalized[entry.paper_best] - 1.0
    return Claim(
        claim_id=claim_id,
        description=f"optimal configuration for {entry.spec.name} ({entry.figure})",
        paper_value=entry.paper_best,
        measured_value=measured,
        holds=measured == entry.paper_best,
        note="" if measured == entry.paper_best else f"paper pick within {regret:.1%} of simulated best",
    )


def gap_claim(
    claim_id: str,
    description: str,
    paper_gap: float,
    measured_gap: float,
    rel_tolerance: float = 1.0,
    abs_tolerance: float = 0.05,
) -> Claim:
    """Claim about a relative runtime gap (e.g. "S-LocW 25 % faster").

    Holds when the measured gap has the same sign and is within
    ``rel_tolerance`` (fractional) or ``abs_tolerance`` (absolute
    percentage points) of the paper's figure — shape, not absolute match.
    """
    same_direction = (measured_gap > 0) == (paper_gap > 0) or abs(measured_gap - paper_gap) <= abs_tolerance
    magnitude_ok = (
        abs(measured_gap - paper_gap) <= abs_tolerance
        or abs(measured_gap - paper_gap) <= rel_tolerance * abs(paper_gap)
    )
    return Claim(
        claim_id=claim_id,
        description=description,
        paper_value=f"{paper_gap:+.1%}",
        measured_value=f"{measured_gap:+.1%}",
        holds=bool(same_direction and magnitude_ok),
    )
