"""Whole-workflow specification: simulation + analytics + transport.

The paper's workflows are rank-paired 1:1 with identical I/O granularity on
both sides (§IV-C); :class:`WorkflowSpec` enforces exactly that shape and is
the unit the scheduler, the recommendation engine, and the experiment
harness all operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.storage.objects import SnapshotSpec
from repro.workflow.component import ComponentSpec
from repro.workflow.kernels import ComputeKernel, NullKernel


@dataclass(frozen=True)
class WorkflowSpec:
    """An in situ workflow: writer and reader coupled through a channel.

    Attributes
    ----------
    name:
        Label used in reports ("gtc+readonly@24", ...).
    ranks:
        Concurrency of *each* component (1:1 pairing).
    iterations:
        Snapshot versions streamed end to end.
    snapshot:
        Per-rank per-iteration payload.
    sim_compute / analytics_compute:
        Compute kernels of the two components.
    stack_name:
        Storage stack used for the channel ("nvstream" or "novafs").
    couplings:
        Directed producer/consumer edges between component roles.  The
        default is the paper's single writer->reader channel; richer
        topologies (fan-out analytics, feedback loops) can be declared and
        are structurally checked by :mod:`repro.analysis.validate` — the
        coupling graph must be an acyclic graph over the declared roles.
    """

    name: str
    ranks: int
    iterations: int
    snapshot: SnapshotSpec
    sim_compute: ComputeKernel = field(default_factory=NullKernel)
    analytics_compute: ComputeKernel = field(default_factory=NullKernel)
    stack_name: str = "nvstream"
    couplings: Tuple[Tuple[str, str], ...] = (("simulation", "analytics"),)

    def __post_init__(self) -> None:
        if self.ranks <= 0:
            raise ConfigurationError(f"ranks must be positive, got {self.ranks}")
        if self.iterations <= 0:
            raise ConfigurationError(
                f"iterations must be positive, got {self.iterations}"
            )
        if not self.name:
            raise ConfigurationError("workflow needs a non-empty name")

    # ------------------------------------------------------------------
    @property
    def writer(self) -> ComponentSpec:
        """The simulation component."""
        return ComponentSpec(
            role="simulation",
            ranks=self.ranks,
            iterations=self.iterations,
            snapshot=self.snapshot,
            compute=self.sim_compute,
        )

    @property
    def reader(self) -> ComponentSpec:
        """The analytics component."""
        return ComponentSpec(
            role="analytics",
            ranks=self.ranks,
            iterations=self.iterations,
            snapshot=self.snapshot,
            compute=self.analytics_compute,
        )

    @property
    def roles(self) -> Tuple[str, ...]:
        """Component roles that exist in this workflow (coupling endpoints)."""
        return (self.writer.role, self.reader.role)

    def total_data_bytes(self) -> int:
        """Data volume streamed through the channel over the full run."""
        return self.snapshot.total_bytes(self.ranks, self.iterations)

    def retained_versions(self, parallel: bool) -> int:
        """Versions per rank the channel keeps reserved in PMEM.

        Serial execution drains the whole stream before the reader starts,
        so the channel holds every version; parallel streaming holds only
        the producer's in-flight and the consumer's in-read snapshot.
        """
        return 2 if parallel else self.iterations

    def with_ranks(self, ranks: int, name: Optional[str] = None) -> "WorkflowSpec":
        """A copy at a different concurrency level (weak scaling: per-rank
        snapshot and compute stay fixed, total data grows with ranks)."""
        return replace(self, ranks=ranks, name=name or f"{self.name}@{ranks}")

    def with_stack(self, stack_name: str) -> "WorkflowSpec":
        """A copy using a different storage stack."""
        return replace(self, stack_name=stack_name)
