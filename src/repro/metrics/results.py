"""Per-run result records.

The paper reports end-to-end workflow runtime; for serially scheduled
workflows it splits the bar into writer and reader components (§V
"Measurements").  :class:`RunResult` carries both, plus per-phase breakdowns
used by the feature extractor and the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.trace import Tracer
from repro.units import fmt_time


@dataclass(frozen=True)
class PhaseBreakdown:
    """Mean per-rank seconds spent in each phase of one component."""

    compute: float = 0.0
    io: float = 0.0
    wait: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.io + self.wait

    @property
    def io_fraction(self) -> float:
        """I/O time / (I/O + compute) — the per-run analogue of the paper's
        I/O index (which is defined on a standalone, contention-free run)."""
        busy = self.compute + self.io
        return self.io / busy if busy > 0 else 0.0


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one workflow under one configuration.

    Attributes
    ----------
    workflow_name / config_label:
        Identifiers for reporting.
    makespan:
        End-to-end runtime: from the first component start to the last
        component finish (the paper's headline metric).
    writer_span / reader_span:
        (start, end) virtual times of each component.
    writer_phases / reader_phases:
        Mean per-rank phase breakdowns.
    bytes_written / bytes_read:
        Payload volumes moved through the channel.
    tracer:
        Full timeline when tracing was requested, else ``None``.
    """

    workflow_name: str
    config_label: str
    makespan: float
    writer_span: Tuple[float, float]
    reader_span: Tuple[float, float]
    writer_phases: PhaseBreakdown
    reader_phases: PhaseBreakdown
    bytes_written: float = 0.0
    bytes_read: float = 0.0
    tracer: Optional[Tracer] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.makespan < 0:
            raise ConfigurationError(f"negative makespan: {self.makespan}")

    # ------------------------------------------------------------------
    @property
    def writer_runtime(self) -> float:
        """Wall time of the simulation component."""
        return self.writer_span[1] - self.writer_span[0]

    @property
    def reader_runtime(self) -> float:
        """Wall time of the analytics component."""
        return self.reader_span[1] - self.reader_span[0]

    @property
    def is_serial(self) -> bool:
        """Heuristic: reader started at (or after) writer completion."""
        return self.reader_span[0] >= self.writer_span[1] - 1e-9

    def split_bar(self) -> Tuple[float, float]:
        """(writer, reader) components of the serial split bar graph."""
        return (self.writer_runtime, self.reader_runtime)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.workflow_name} [{self.config_label}] "
            f"makespan={fmt_time(self.makespan)} "
            f"(writer={fmt_time(self.writer_runtime)}, "
            f"reader={fmt_time(self.reader_runtime)})"
        )
