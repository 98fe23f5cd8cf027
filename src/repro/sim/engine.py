"""The discrete-event engine: a virtual clock plus an ordered event queue.

The engine owns *timers* (callbacks scheduled at absolute virtual times) and
*processes* (generators that yield requests; see :mod:`repro.sim.process`).
Timers are cancellable — the fluid-flow network constantly reschedules flow
completions as concurrency changes, so cancellation must be O(1): cancelled
timers stay in the heap and are skipped when popped.

The engine also supports *flush hooks*: callbacks invoked whenever the
virtual clock is about to advance past the current timestamp (and when the
queue drains).  The flow network uses them to coalesce rate recomputations
for flow starts/finishes that land at the same instant — 24 ranks kicking
off identical writes in one timestep cost one fixed-point solve, not 24.
A flush hook returns ``True`` when it did work (it may have scheduled new
timers, possibly earlier than the previously pending head), so the loop
re-examines the queue before committing to a pop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import SimEvent
from repro.sim.process import Process

#: Tolerance for comparing float virtual timestamps.  Flow completions are
#: computed by dividing remaining bytes by fluid rates, so two events that
#: are simultaneous *in the model* can differ by rounding in the last few
#: ulps; exact ``==`` on virtual times is therefore a bug (simlint SIM103).
TIME_EPSILON: float = 1e-9


def times_close(a: float, b: float, epsilon: float = TIME_EPSILON) -> bool:
    """Whether two virtual timestamps are equal up to solver rounding."""
    return abs(a - b) <= epsilon * max(1.0, abs(a), abs(b))


class Timer:
    """Handle for a scheduled callback; supports O(1) cancellation."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call repeatedly."""
        self.cancelled = True


class Engine:
    """Virtual-time discrete-event loop.

    Typical use::

        engine = Engine()

        def worker(env):
            yield Timeout(1.0)
            ...

        engine.spawn(worker(engine), name="worker-0")
        engine.run()
        assert engine.now == 1.0

    The engine enforces determinism: ties in event time are broken by a
    monotonically increasing sequence number, so runs are exactly
    reproducible.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._queue: List[Tuple[float, int, Timer]] = []
        self._processes: List[Process] = []
        self._running = False
        #: Executed (non-cancelled) timer callbacks.
        self.events_executed: int = 0
        #: Cancelled timers discarded while popping the heap.
        self.timers_cancelled_skipped: int = 0
        #: High-water mark of the event queue (includes cancelled timers
        #: still awaiting their pop) — the engine's memory pressure signal,
        #: tracked unconditionally because it is one compare per push.
        self.peak_queue_depth: int = 0
        #: Optional observability adapter (see :mod:`repro.obs.hooks`);
        #: ``None`` keeps the hot loop branch-cheap when not observing.
        self.hooks: Optional[Any] = None
        #: End-of-timestamp callbacks (see :meth:`add_flush_hook`).
        self._flush_hooks: List[Callable[[], bool]] = []

    # ------------------------------------------------------------------
    # Clock and scheduling.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def timers_scheduled(self) -> int:
        """Total timers ever pushed onto the event queue."""
        return self._seq

    def schedule(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run *callback* ``delay`` seconds from now; returns a cancellable handle."""
        if not delay >= 0:  # negative, or NaN (which would corrupt heap order)
            raise SimulationError(f"cannot schedule at delay {delay}: it must be >= 0")
        timer = Timer(self._now + delay, callback)
        self._seq += 1
        heapq.heappush(self._queue, (timer.time, self._seq, timer))
        if len(self._queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self._queue)
        return timer

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Run *callback* at absolute virtual time *time*."""
        return self.schedule(time - self._now, callback)

    # ------------------------------------------------------------------
    # Processes.
    # ------------------------------------------------------------------
    def spawn(
        self,
        generator: Generator[Any, Any, Any],
        name: str = "",
        delay: float = 0.0,
    ) -> Process:
        """Create a :class:`Process` from *generator* and start it after *delay*."""
        process = Process(self, generator, name=name)
        self._processes.append(process)
        self.schedule(delay, process.start)
        return process

    def event(self, name: str = "") -> SimEvent:
        """Convenience constructor for a :class:`SimEvent`."""
        return SimEvent(name=name)

    def timeout_event(self, delay: float, value: Any = None, name: str = "") -> SimEvent:
        """Return an event that succeeds ``delay`` seconds from now."""
        event = SimEvent(name=name or f"timeout@{self._now + delay:.6f}")
        self.schedule(delay, lambda: event.succeed(value))
        return event

    # ------------------------------------------------------------------
    # Flush hooks.
    # ------------------------------------------------------------------
    def add_flush_hook(self, hook: Callable[[], bool]) -> None:
        """Register *hook* to run before the clock advances past ``now``.

        Hooks fire (in registration order) when the next non-cancelled timer
        is strictly later than the current time, and when the queue drains.
        A hook returns ``True`` when it performed deferred work; since that
        work may schedule new timers at or after ``now``, the main loop
        re-examines the queue head before popping.  Hooks must return
        ``False`` when they have nothing pending, or the loop cannot make
        progress.
        """
        self._flush_hooks.append(hook)

    def _run_flush_hooks(self) -> bool:
        ran = False
        for hook in self._flush_hooks:
            if hook():
                ran = True
        return ran

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def _dispatch(
        self, until: Optional[float], batch: bool = True
    ) -> Optional[bool]:
        """Pop and execute the next timestamp *cluster* through one heap path.

        All timers whose times are :func:`times_close` to the pending head
        are executed in one sweep (*batch* mode, used by :meth:`run`):
        completions that are simultaneous in the model but ulp-staggered by
        fluid-rate rounding dispatch together, and the flush hooks —
        deferred until the clock is about to leave the epsilon cluster —
        then run a single deferred solve for the whole burst instead of one
        per ulp.  :meth:`step` passes ``batch=False`` for single-timer
        granularity; both paths share the exact counter accounting
        (``events_executed`` per executed callback,
        ``timers_cancelled_skipped`` per discarded timer, ``on_step`` per
        callback with the live queue depth).

        Returns ``True`` after executing at least one callback, ``False``
        when the queue is exhausted (flush hooks included), and ``None``
        when the next event lies beyond the *until* horizon.
        """
        queue = self._queue
        while True:
            while queue and queue[0][2].cancelled:
                heapq.heappop(queue)
                self.timers_cancelled_skipped += 1
            if not queue:
                if self._flush_hooks and self._run_flush_hooks():
                    continue
                return False
            head_time = queue[0][0]
            if (
                head_time > self._now
                and not times_close(head_time, self._now)
                and self._flush_hooks
                and self._run_flush_hooks()
            ):
                # Deferred work may have scheduled earlier timers (or
                # cancelled the head); re-evaluate before popping.
                continue
            if until is not None and head_time > until:
                return None
            executed = 0
            while queue:
                time = queue[0][0]
                if not times_close(time, head_time):
                    break
                if until is not None and time > until:
                    break
                _time, _seq, timer = heapq.heappop(queue)
                if timer.cancelled:
                    self.timers_cancelled_skipped += 1
                    continue
                if time < self._now:  # pragma: no cover - guarded by schedule()
                    raise SimulationError("event queue went backwards in time")
                self._now = time
                timer.callback()
                executed += 1
                self.events_executed += 1
                if self.hooks is not None:
                    self.hooks.on_step(self._now, len(queue))
                if not batch:
                    break
            if executed:
                return True
            # The entire cluster was cancelled under us — start over.

    def step(self) -> bool:
        """Execute the next non-cancelled timer; return ``False`` if none remain."""
        return bool(self._dispatch(None, batch=False))

    def run(self, until: Optional[float] = None, check_deadlock: bool = True) -> float:
        """Run until the queue drains (or virtual time *until* is reached).

        Parameters
        ----------
        until:
            Optional virtual-time horizon.  Events after the horizon remain
            queued; the clock is advanced to exactly *until*.
        check_deadlock:
            When the queue drains while processes are still alive (blocked on
            events nobody will trigger), raise :class:`DeadlockError` instead
            of returning silently.  This catches protocol bugs such as a
            reader waiting for a snapshot version that is never published.

        Returns the final virtual time.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            while True:
                executed = self._dispatch(until)
                if executed is None:
                    self._now = until
                    return self._now
                if not executed:
                    break
            if until is not None and self._now < until:
                self._now = until
            if check_deadlock and until is None:
                blocked = [p for p in self._processes if p.alive]
                if blocked:
                    names = ", ".join(p.name or "<anonymous>" for p in blocked[:8])
                    raise DeadlockError(
                        f"event queue drained with {len(blocked)} blocked "
                        f"process(es): {names}"
                    )
            return self._now
        finally:
            self._running = False

    @property
    def alive_processes(self) -> List[Process]:
        """Processes that have started but not yet finished."""
        return [p for p in self._processes if p.alive]
