"""Tasks: generator coroutines driven by the simulator.

A task wraps a generator, which ``yield``s one of two things:

* an :class:`~repro.simulator.events.Event` — the task blocks until it
  triggers; the event's value is sent back into the generator (or the
  exception thrown in, if the event failed);
* a non-negative ``float`` delay — the task sleeps that many seconds
  and resumes with ``None``.  This is how a thread charges CPU time.

When the generator returns, the task — which is itself an event —
succeeds with the return value.

A delay is one heap entry, ``(now + d, seq, task._wake, (seq,))``,
pushed at the ``yield``: the same ``(time, seq)`` slot that ``yield
sim.timeout(d)`` takes, without the timer's :class:`Event`, callback
list and ``_expire`` frame.  ``seq`` doubles as the wake token, so a
wake-up left stale by :meth:`Task.interrupt` is ignored.  Under a
monitor the delay becomes ``sim.timeout(d)``, so race-detector runs
keep their slices and happens-before edges.  Only ``float`` is a delay
(``int`` and ``bool`` are not); a negative or NaN delay raises
:class:`SimulationError` inside the generator, at the ``yield``.

:meth:`Task._on_event` and :meth:`Task._wake` are the hottest callbacks
in the whole reproduction (every task switch goes through one of them),
so each inlines the resume and the re-arm on the common targets — one
Python frame per wake-up.  :meth:`Task._resume` and :meth:`Task._arm`
hold the general logic for the start / interrupt paths and the rare
targets (keep the bodies in sync).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.simulator.errors import Interrupt, SimulationError
from repro.simulator.events import _PENDING, _SUCCEEDED, Event

__all__ = ["Task"]


class Task(Event):
    """A running coroutine.  Yield a Task to join it.

    Attributes
    ----------
    name:
        Debug label, shown in tracebacks and traces.
    """

    __slots__ = ("name", "_gen", "_waiting_on")

    def __init__(self, sim, gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Task needs a generator, got {type(gen).__name__}; "
                "did you forget to call the coroutine function?"
            )
        super().__init__(sim)
        self.name = name or getattr(gen, "__name__", "task")
        self._gen = gen
        #: what the task sleeps on: the awaited Event, the wake token
        #: (``seq`` of its delay entry), or None while running
        self._waiting_on: Any = None
        sim._running_tasks += 1
        # First resume happens through the scheduler so a freshly spawned
        # task never runs synchronously inside its creator.
        sim._post(0.0, self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the task at the current time.

        Only valid while the task is blocked on an event or a delay.
        The event the task was waiting for stays valid; the task simply
        stops waiting for it.
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
        # hot path: _resume and _arm inlined (keep the bodies in sync)
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
        sim = self.sim
        if type(target) is float:
            if target >= 0.0 and sim.monitor is None:
                sim._seq += 1
                seq = self._waiting_on = sim._seq
                heappush(sim._queue,
                         (sim._now + target, seq, self._wake, (seq,)))
                return
        elif isinstance(target, Event):
            self._waiting_on = target
            target._observed = True
            if target._callbacks is None:
                sim._post(0.0, self._on_event, target)
            else:
                target._callbacks.append(self._on_event)
            return
        self._arm(target)

    def _wake(self, token: int) -> None:
        """A delay's heap entry: resume the sleeper with ``None``."""
        # hot path: _resume and _arm inlined (keep the bodies in sync)
        if self._waiting_on is not token:
            return  # stale wake-up (e.g. after an interrupt)
        self._waiting_on = None
        try:
            target = self._gen.send(None)
        except StopIteration as stop:
            self.sim._running_tasks -= 1
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.sim._running_tasks -= 1
            self.fail(err)
            self.sim._failed_tasks.append(self)
            return
        sim = self.sim
        if type(target) is float:
            if target >= 0.0 and sim.monitor is None:
                sim._seq += 1
                seq = self._waiting_on = sim._seq
                heappush(sim._queue,
                         (sim._now + target, seq, self._wake, (seq,)))
                return
        elif isinstance(target, Event):
            self._waiting_on = target
            target._observed = True
            if target._callbacks is None:
                sim._post(0.0, self._on_event, target)
            else:
                target._callbacks.append(self._on_event)
            return
        self._arm(target)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._state != _PENDING:
            return
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
        self._arm(target)

    def _arm(self, target: Any) -> None:
        """Block on what the generator yielded: an Event or a delay."""
        sim = self.sim
        if isinstance(target, float):
            if not target >= 0.0:       # negative or NaN
                self._resume(None, SimulationError(
                    f"task {self.name!r} yielded the delay {target!r}; "
                    "a delay must be a non-negative float"))
                return
            if sim.monitor is None:
                sim._seq += 1
                seq = self._waiting_on = sim._seq
                heappush(sim._queue,
                         (sim._now + float(target), seq, self._wake, (seq,)))
                return
            target = sim.timeout(float(target))   # keeps the monitor's edges
        elif not isinstance(target, Event):
            sim._running_tasks -= 1
            bad = SimulationError(
                f"task {self.name!r} yielded {target!r}; "
                "tasks must yield Events or float delays"
            )
            self.fail(bad)
            sim._failed_tasks.append(self)
            return
        self._waiting_on = target
        target.add_done_callback(self._on_event)
