"""Token and synchronization resources for the discrete-event engine.

* :class:`Semaphore` — counting semaphore with FIFO wait queues.
* :class:`Barrier` — cyclic barrier; MPI applications synchronize every
  iteration through collectives (ghost exchanges, reductions), which is why
  their I/O bursts stay aligned across ranks.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from repro.errors import SimulationError
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Semaphore:
    """Counting semaphore with FIFO fairness.

    ``acquire()`` returns a :class:`SimEvent` the caller should yield on;
    ``release()`` wakes the oldest waiter (or increments the count).
    """

    def __init__(self, engine: "Engine", tokens: int, name: str = "semaphore") -> None:
        if tokens < 0:
            raise SimulationError(f"semaphore must start with >= 0 tokens, got {tokens}")
        self.engine = engine
        self.name = name
        self._tokens = tokens
        self._capacity = tokens
        self._waiters: Deque[SimEvent] = deque()

    @property
    def available(self) -> int:
        """Tokens currently free."""
        return self._tokens

    @property
    def waiting(self) -> int:
        """Number of queued acquirers."""
        return len(self._waiters)

    def acquire(self) -> SimEvent:
        """Request a token; the returned event succeeds when one is granted."""
        event = SimEvent(name=f"{self.name}.acquire")
        if self._tokens > 0:
            self._tokens -= 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a token, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._tokens += 1
            if self._tokens > self._capacity:
                self._capacity = self._tokens


class Barrier:
    """Cyclic barrier for a fixed set of parties.

    Each party calls :meth:`arrive` once per cycle and yields on the
    returned event; the event for a cycle succeeds when the last party of
    that cycle arrives.  The barrier then resets for the next cycle.
    Models the per-iteration MPI collectives (ghost exchange, allreduce)
    that keep HPC ranks in lockstep.
    """

    def __init__(self, engine: "Engine", parties: int, name: str = "barrier") -> None:
        if parties <= 0:
            raise SimulationError(f"barrier needs >= 1 parties, got {parties}")
        self.engine = engine
        self.name = name
        self.parties = parties
        self._generation = 0
        self._arrived = 0
        self._event = SimEvent(name=f"{name}.gen0")

    @property
    def waiting(self) -> int:
        """Parties that have arrived in the current cycle."""
        return self._arrived

    def arrive(self) -> SimEvent:
        """Register arrival in the current cycle.

        Returns the current cycle's event, which succeeds (with the cycle
        index) once all parties have arrived.
        """
        if self._arrived >= self.parties:  # pragma: no cover - defensive
            raise SimulationError(f"barrier {self.name!r} over-subscribed")
        self._arrived += 1
        event = self._event
        if self._arrived == self.parties:
            generation = self._generation
            self._generation += 1
            self._arrived = 0
            self._event = SimEvent(name=f"{self.name}.gen{self._generation}")
            event.succeed(generation)
        return event
