"""One-shot events: the synchronization primitive tasks wait on.

An :class:`Event` has three states: pending, succeeded, failed.  Tasks
``yield`` an event to block until it triggers.  Triggering is *scheduled*
(at the current time) rather than executed inline, so wake-up order is
the deterministic FIFO order of the engine queue.  The one exception is
a timer (:meth:`Simulator.timeout`): its queue entry *is* the wake-up,
so :meth:`Event._expire` runs the waiters inside that entry instead of
paying a second dispatch per sleeper.

This module is on the engine's innermost dispatch path (every task
switch triggers at least one event), so the hot methods trade a little
repetition for fewer Python frames: callback dispatch is inlined into
:meth:`Event.succeed` / :meth:`Event.fail`, and :class:`AnyOf` reads
``_state`` / ``_value`` directly instead of going through the
properties.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.simulator.errors import SimulationError

_PENDING = 0
_SUCCEEDED = 1
_FAILED = 2


class Event:
    """A one-shot waitable.

    Notes
    -----
    * ``succeed``/``fail`` may be called exactly once.
    * Callbacks added after the event triggered run (scheduled) immediately.
    """

    __slots__ = ("sim", "_state", "_value", "_callbacks", "_observed")

    def __init__(self, sim):
        self.sim = sim
        self._state = _PENDING
        self._value: Any = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._observed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded."""
        return self._state == _SUCCEEDED

    @property
    def value(self) -> Any:
        """The success value, or the exception if the event failed."""
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _SUCCEEDED
        self._value = value
        # inline dispatch: schedule every waiter at the current time
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            post = self.sim._post
            for fn in callbacks:
                post(0.0, fn, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._state = _FAILED
        self._value = exc
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            post = self.sim._post
            for fn in callbacks:
                post(0.0, fn, self)
        return self

    def _expire(self, value: Any = None) -> None:
        """A timer's queue entry: succeed and run the waiters right here.

        The waiters take the timer's own ``(time, seq)`` slot whatever is
        attached to the engine, so bare, traced, ``until``-bounded and
        monitored runs share one dispatch order.
        """
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._state = _SUCCEEDED
        self._value = value
        callbacks, self._callbacks = self._callbacks, None
        if not callbacks:
            return
        if self.sim.monitor is not None:
            self.sim._run_slices(callbacks, self)
        else:
            for fn in callbacks:
                fn(self)

    # -- waiting -------------------------------------------------------
    def add_done_callback(self, fn: Callable[["Event"], None]) -> None:
        """Call ``fn(event)`` (via the scheduler) once the event triggers."""
        self._observed = True
        callbacks = self._callbacks
        if callbacks is None:
            self.sim._post(0.0, fn, self)
        else:
            callbacks.append(fn)


class AnyOf(Event):
    """Succeeds as soon as one child succeeds; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self._children = events
        if not events:
            raise SimulationError("AnyOf needs at least one event")
        for i, evt in enumerate(events):
            evt.add_done_callback(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, index: int, evt: Event) -> None:
        if self._state != _PENDING:
            return
        if evt._state != _SUCCEEDED:
            self.fail(evt._value)
            return
        self.succeed((index, evt._value))
