"""Generator-based simulated processes.

A process body is a plain generator.  Each ``yield`` hands the engine a
*request* describing what the process is waiting for:

``yield 1.5`` or ``yield Timeout(1.5)``
    suspend for virtual seconds;
``yield event`` (a :class:`~repro.sim.events.SimEvent`)
    suspend until the event triggers; the yield expression evaluates to the
    event's value (or re-raises its failure inside the generator);
``yield other_process``
    suspend until the other process finishes; evaluates to its return value.

Processes themselves expose a ``completed`` event, so waiting on a process is
just waiting on that event.  A process's return value (via ``return x``)
becomes the event payload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.sim.events import SimEvent, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Process:
    """A running simulated activity backed by a generator.

    Not instantiated directly — use :meth:`repro.sim.engine.Engine.spawn`.
    """

    __slots__ = (
        "engine",
        "name",
        "completed",
        "_generator",
        "_timeout_value",
        "_started",
        "_finished",
        "__weakref__",
    )

    def __init__(self, engine: "Engine", generator: Generator[Any, Any, Any], name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        self.engine = engine
        self.name = name
        self.completed = SimEvent(name=f"{name}.completed")
        self._generator = generator
        #: The value the pending ``Timeout`` resumes the body with.
        self._timeout_value: Any = None
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """``True`` between start and completion."""
        return self._started and not self._finished

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        """Return value of the process body (raises if failed or pending)."""
        return self.completed.value

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin executing the body.  Called by the engine."""
        if self._started:
            raise SimulationError(f"process {self.name!r} started twice")
        self._started = True
        self._advance(None, None)

    def _advance(self, value: Any, exception: Any) -> None:
        """Resume the generator with *value* (or throw *exception* into it)."""
        try:
            if exception is not None:
                request = self._generator.throw(exception)
            else:
                request = self._generator.send(value)
        except StopIteration as stop:
            self._finish_ok(getattr(stop, "value", None))
            return
        except BaseException as exc:
            self._finish_fail(exc)
            return
        self._handle_request(request)

    def _handle_request(self, request: Any) -> None:
        if isinstance(request, (int, float)):
            request = Timeout(request)
        if isinstance(request, Timeout):
            self._timeout_value = request.value
            self.engine.schedule(request.duration, self._resume_timeout)
            return
        if isinstance(request, Process):
            request = request.completed
        if isinstance(request, SimEvent):
            request.add_callback(self._on_event)
            return
        self._finish_fail(
            SimulationError(
                f"process {self.name!r} yielded unsupported request "
                f"{type(request).__name__}: {request!r}"
            )
        )

    def _resume_timeout(self) -> None:
        value, self._timeout_value = self._timeout_value, None
        self._advance(value, None)

    def _on_event(self, event: SimEvent) -> None:
        if event.exception is not None:
            self._advance(None, event.exception)
        else:
            self._advance(event._value, None)

    def _finish_ok(self, value: Any) -> None:
        self._finished = True
        self.engine._processes.pop(self, None)
        self.completed.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._finished = True
        self.engine._processes.pop(self, None)
        if self.completed.triggered:  # pragma: no cover - defensive
            raise exc
        self.completed.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else ("alive" if self._started else "new")
        return f"<Process {self.name!r} {state}>"
