"""Tasks: generator coroutines driven by the simulator.

A task wraps a generator.  Whenever the generator ``yield``s an
:class:`~repro.simulator.events.Event` the task blocks until it
triggers; the event's value is sent back into the generator (or the
exception thrown in, if the event failed).  When the generator returns,
the task — which is itself an event — succeeds with the return value.

:meth:`Task._on_event` is the single hottest callback in the whole
reproduction (every task switch goes through it), so the resume logic
is inlined there as well as kept in :meth:`Task._resume` for the
start/interrupt paths, and so is the re-arm on the next awaited event
(:meth:`Event.add_done_callback`) — one Python frame per wake-up
instead of three.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.simulator.errors import Interrupt, SimulationError
from repro.simulator.events import _SUCCEEDED, Event

__all__ = ["Task"]


class Task(Event):
    """A running coroutine.  Yield a Task to join it.

    Attributes
    ----------
    name:
        Debug label, shown in tracebacks and traces.
    """

    __slots__ = ("name", "_gen", "_waiting_on", "_started")

    def __init__(self, sim, gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Task needs a generator, got {type(gen).__name__}; "
                "did you forget to call the coroutine function?"
            )
        super().__init__(sim)
        self.name = name or getattr(gen, "__name__", "task")
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._started = False
        sim._running_tasks += 1
        # First resume happens through the scheduler so a freshly spawned
        # task never runs synchronously inside its creator.
        sim._post(0.0, self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the task at the current time.

        Only valid while the task is blocked on an event.  The event the
        task was waiting for stays valid; the task simply stops waiting
        for it.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished task {self.name!r}")
        self.sim.schedule(0.0, self._do_interrupt, Interrupt(cause))

    def _do_interrupt(self, exc: Interrupt) -> None:
        if self.triggered:
            return
        self._waiting_on = None
        self._resume(None, exc)

    def _on_event(self, evt: Event) -> None:
        # hot path: _resume inlined (keep the two bodies in sync)
        if self._waiting_on is not evt:
            return  # stale wake-up (e.g. after an interrupt)
        self._waiting_on = None
        try:
            if evt._state == _SUCCEEDED:
                target = self._gen.send(evt._value)
            else:
                target = self._gen.throw(evt._value)
        except StopIteration as stop:
            self.sim._running_tasks -= 1
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.sim._running_tasks -= 1
            self.fail(err)
            self.sim._failed_tasks.append(self)
            return
        if not isinstance(target, Event):
            self.sim._running_tasks -= 1
            bad = SimulationError(
                f"task {self.name!r} yielded {target!r}; tasks must yield Events"
            )
            self.fail(bad)
            self.sim._failed_tasks.append(self)
            return
        self._waiting_on = target
        # target.add_done_callback(self._on_event), inlined
        target._observed = True
        if target._callbacks is None:
            self.sim._post(0.0, self._on_event, target)
        else:
            target._callbacks.append(self._on_event)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._started = True
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.sim._running_tasks -= 1
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.sim._running_tasks -= 1
            self.fail(err)
            self.sim._failed_tasks.append(self)
            return
        if not isinstance(target, Event):
            self.sim._running_tasks -= 1
            bad = SimulationError(
                f"task {self.name!r} yielded {target!r}; tasks must yield Events"
            )
            self.fail(bad)
            self.sim._failed_tasks.append(self)
            return
        self._waiting_on = target
        target.add_done_callback(self._on_event)
