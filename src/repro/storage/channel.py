"""The versioned streaming I/O channel between workflow components.

Semantics follow §V "Measurements": the writer (simulation) periodically
produces a checkpoint *snapshot* — all of its objects under a new version
number — into the PMEM channel; the reader (analytics) consumes snapshots
version by version, rank paired 1:1 with its writer.  A reader blocks until
its paired writer has published the version it wants; versions from one
writer are published strictly in order.

The channel also owns the PMEM space accounting: it reserves a ring of
``retained_versions`` snapshot slots per stream on the device it is placed
on, which is how a long-running workflow fits in finite App-Direct capacity
(NVStream's versioned log with truncation behaves this way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import StorageError
from repro.sim.events import SimEvent
from repro.storage.base import StorageStack
from repro.storage.objects import SnapshotSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.topology import Node
    from repro.sim.engine import Engine


@dataclass
class _StreamState:
    """Publication state for one writer rank's stream."""

    published: int = -1  # highest published version
    waiters: Dict[int, SimEvent] = field(default_factory=dict)
    publish_times: List[float] = field(default_factory=list)
    bytes_published: float = 0.0


class StreamChannel:
    """A PMEM-resident, versioned, multi-stream snapshot channel.

    Parameters
    ----------
    engine:
        The simulation engine (for event creation and timestamps).
    node:
        The platform; the channel reserves space on one of its sockets'
        PMEM devices.
    pmem_socket:
        Socket whose PMEM holds the channel — **the placement decision**
        the scheduler makes (LocW puts it on the writer's socket, LocR on
        the reader's).
    stack:
        Storage stack used to access the channel.
    n_streams:
        Number of writer ranks (one independent stream per rank).
    snapshot:
        Per-rank snapshot payload description (for space reservation).
    retained_versions:
        Ring depth: how many versions per stream are kept live in PMEM.
    hooks:
        Optional observability adapter (see :mod:`repro.obs.hooks`); when
        set, the channel reports publications, version waits, reader lag
        and retention pressure through the probe API.
    """

    def __init__(
        self,
        engine: "Engine",
        node: "Node",
        pmem_socket: int,
        stack: StorageStack,
        n_streams: int,
        snapshot: SnapshotSpec,
        retained_versions: int = 2,
        hooks: Optional[object] = None,
    ) -> None:
        if n_streams <= 0:
            raise StorageError(f"n_streams must be positive, got {n_streams}")
        if retained_versions <= 0:
            raise StorageError(
                f"retained_versions must be positive, got {retained_versions}"
            )
        self.engine = engine
        self.node = node
        self.pmem_socket = pmem_socket
        self.stack = stack
        self.n_streams = n_streams
        self.snapshot = snapshot
        self.retained_versions = retained_versions
        self._streams: Dict[int, _StreamState] = {
            i: _StreamState() for i in range(n_streams)
        }
        self.hooks = hooks
        self._reserved_bytes = (
            snapshot.snapshot_bytes * n_streams * retained_versions
        )
        device = node.socket(pmem_socket).pmem
        device.allocate(self._reserved_bytes)
        if self.hooks is not None:
            self.hooks.on_reserve(
                engine.now, self._reserved_bytes, device.capacity_bytes
            )

    # ------------------------------------------------------------------
    @property
    def reserved_bytes(self) -> int:
        """PMEM space held by the channel's version ring."""
        return self._reserved_bytes

    def close(self) -> None:
        """Release the channel's PMEM reservation."""
        if self._reserved_bytes:
            self.node.socket(self.pmem_socket).pmem.free(self._reserved_bytes)
            self._reserved_bytes = 0

    # ------------------------------------------------------------------
    def _stream(self, stream_id: int) -> _StreamState:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StorageError(
                f"stream {stream_id} out of range (channel has {self.n_streams})"
            ) from None

    def publish(self, stream_id: int, version: int, nbytes: float = 0.0) -> None:
        """Mark *version* of *stream_id* published, waking blocked readers.

        Versions must be published densely and in order (0, 1, 2, ...): the
        writer appends to a log, it cannot skip ahead.
        """
        state = self._stream(stream_id)
        if version != state.published + 1:
            raise StorageError(
                f"stream {stream_id}: publish({version}) out of order; "
                f"last published was {state.published}"
            )
        state.published = version
        state.publish_times.append(self.engine.now)
        state.bytes_published += nbytes
        if self.hooks is not None:
            self.hooks.on_publish(self.engine.now, stream_id, version, nbytes)
        waiter = state.waiters.pop(version, None)
        if waiter is not None:
            waiter.succeed(version)

    def wait_version(self, stream_id: int, version: int) -> SimEvent:
        """Event that succeeds once *version* of *stream_id* is published."""
        state = self._stream(stream_id)
        if version < 0:
            raise StorageError(f"version must be >= 0, got {version}")
        event = state.waiters.get(version)
        if event is None:
            event = SimEvent(name=f"channel[{stream_id}].v{version}")
            if version <= state.published:
                event.succeed(version)
            else:
                state.waiters[version] = event
                if self.hooks is not None:
                    self.hooks.on_wait(
                        self.engine.now, stream_id, version, state.published
                    )
        return event

    def published_version(self, stream_id: int) -> int:
        """Highest published version of a stream (-1 if none)."""
        return self._stream(stream_id).published

    def total_bytes_published(self) -> float:
        """Payload bytes published across all streams."""
        return sum(s.bytes_published for s in self._streams.values())
