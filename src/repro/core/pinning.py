"""Core-pinning policies.

The paper pins writer and reader processes to cores local or remote to the
persistent memory according to the configuration (§V "Measurements").
:func:`plan_pinning` turns a workflow + configuration into concrete core
assignments on a node: writers on socket 0, readers on socket 1, and the
channel on whichever socket the placement dictates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.configs import SchedulerConfig
from repro.errors import PlacementError
from repro.platform.topology import Node
from repro.workflow.spec import WorkflowSpec


@dataclass(frozen=True)
class PinningPlan:
    """Concrete placement of a workflow on a node.

    Attributes
    ----------
    writer_socket / reader_socket:
        Sockets hosting the two components' ranks.
    channel_socket:
        Socket whose PMEM hosts the streaming channel.
    writer_cores / reader_cores:
        Physical core IDs assigned to each rank, in rank order.
    """

    writer_socket: int
    reader_socket: int
    channel_socket: int
    writer_cores: Tuple[int, ...]
    reader_cores: Tuple[int, ...]

    @property
    def writer_local(self) -> bool:
        return self.channel_socket == self.writer_socket

    def rank_core(self, component: str, rank: int) -> int:
        """Core assigned to one rank ('writer' or 'reader')."""
        cores = self.writer_cores if component == "writer" else self.reader_cores
        if not 0 <= rank < len(cores):
            raise PlacementError(f"{component} rank {rank} out of range")
        return cores[rank]

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (for launch-script generation)."""
        return {
            "writer_socket": self.writer_socket,
            "reader_socket": self.reader_socket,
            "channel_socket": self.channel_socket,
            "writer_cores": list(self.writer_cores),
            "reader_cores": list(self.reader_cores),
        }


def plan_pinning(
    spec: WorkflowSpec,
    config: SchedulerConfig,
    node: Node,
    writer_socket: int = 0,
    reader_socket: int = 1,
) -> PinningPlan:
    """Allocate cores for *spec* under *config* on *node*.

    Raises :class:`PlacementError` when a socket cannot supply enough cores
    for a component's ranks.  The allocation is released immediately — the
    plan records the IDs; the runner re-allocates when actually executing.
    """
    if node.n_sockets < 2:
        raise PlacementError(
            "in situ placement needs two sockets (components must not share "
            "cores or caches, §II-A)"
        )
    if writer_socket == reader_socket:
        raise PlacementError("writer and reader sockets must differ")
    writer_pool = node.socket(writer_socket).cores
    reader_pool = node.socket(reader_socket).cores
    writer_cores = writer_pool.allocate(spec.ranks, owner="writer")
    try:
        reader_cores = reader_pool.allocate(spec.ranks, owner="reader")
    except PlacementError:
        writer_pool.release(writer_cores)
        raise
    writer_pool.release(writer_cores)
    reader_pool.release(reader_cores)
    channel_socket = writer_socket if config.writer_local else reader_socket
    return PinningPlan(
        writer_socket=writer_socket,
        reader_socket=reader_socket,
        channel_socket=channel_socket,
        writer_cores=tuple(writer_cores),
        reader_cores=tuple(reader_cores),
    )
