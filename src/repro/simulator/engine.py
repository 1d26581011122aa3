"""The simulation event loop.

Time is a ``float`` in **seconds**.  The engine keeps pending work in
one binary heap (a plain list driven by :mod:`heapq`) of
``(time, seq, fn, args)`` entries ordered by ``(time, seq)``; ``seq`` is
a global monotonically increasing counter so that callbacks scheduled
for the same instant run in FIFO order, which makes every simulation
fully deterministic.  ``seq`` is unique, so entry comparisons never
reach ``fn``.

Every push builds that one shape: :meth:`Simulator.at`,
:meth:`Simulator.schedule`, the internal :meth:`Simulator._post` (event
dispatch, task start, timeouts), :meth:`Simulator.timeout_at`, and a
task that yields a ``float`` delay, which pushes its own wake-up
(:meth:`~repro.simulator.process.Task._wake`).  Nothing is cancellable:
no model schedules work it later withdraws, so an entry needs no
handle object and the run loop no skip test.

Under a monitor (the race detector) an entry's ``fn`` is
:meth:`Simulator._slice` and its one argument the
:class:`ScheduledCallback` record the monitor keeps its fork edge on;
the slice brackets the callback with the monitor's hooks.  The run
loops themselves do not know about monitors.

A time or delay that is not ``>= now`` / ``>= 0`` (negative or NaN)
raises :class:`SimulationError` before it reaches the heap: a NaN entry
would fire out of order and set the clock to NaN.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, NoReturn, Optional, Tuple

from repro.simulator.errors import DeadlockError, SimulationError
from repro.simulator.events import Event
from repro.simulator.hostclock import host_clock
from repro.simulator.tracing import Trace

__all__ = ["ScheduledCallback", "Simulator"]

#: queue entries are (time, seq, fn, args)
_HeapEntry = Tuple[float, int, Callable, tuple]


class ScheduledCallback:
    """A monitor's record of one scheduled callback.

    Built only under a monitor: it carries the callback to the
    monitor's ``before_step`` and, in ``origin``, the scheduler's
    vector-clock snapshot that ``on_schedule`` attaches.
    """

    __slots__ = ("fn", "args", "origin")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.simulator.tracing.Trace` recorder.  When
        provided, subsystems emit structured trace records through
        :attr:`record`.

    Tasks yield an :class:`Event` to wait for it, or a ``float`` delay
    to sleep (a CPU charge: one heap entry, no Event).

    Example
    -------
    >>> sim = Simulator()
    >>> def hello():
    ...     yield 1.5
    ...     return "done"
    >>> task = sim.spawn(hello())
    >>> sim.run()
    1.5
    >>> task.value
    'done'
    """

    def __init__(self, trace: Optional[Trace] = None):
        #: pending entries, a binary heap ordered by ``(time, seq)``
        self._queue: List[_HeapEntry] = []
        self._seq = 0
        self._now = 0.0
        self._running_tasks = 0
        self._failed_tasks: list = []
        #: True while :meth:`run` dispatches: callbacks, subscribers and
        #: ltasks run inside it and must not re-enter the scheduler
        self._dispatching = False
        self._trace: Optional[Trace] = None
        #: truthy fast-path flag: hot call sites check this before even
        #: building the kwargs dict for :attr:`record`
        self.tracing = False
        self.trace = trace           # also sets :attr:`record`
        #: perf telemetry (host-side, never fed back into simulation):
        #: callbacks dispatched, high-water queue length, distinct
        #: timestamps dispatched, wall seconds inside :meth:`run` — see
        #: :meth:`perf_stats`
        self.events_executed = 0
        self.queue_peak = 0
        self.batches_executed = 0
        self.run_wall_seconds = 0.0
        #: optional execution monitor (duck-typed; see
        #: ``repro.analysis.race.RaceDetector``).  When set, the engine
        #: reports every schedule and callback slice to it.
        self.monitor: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0.0:
            raise SimulationError(f"negative or NaN delay {delay!r}")
        if self.monitor is not None:
            self._push_monitored(self._now + delay, fn, args)
            return
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, fn, args))

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule in the past or at NaN "
                f"(now={self._now!r}, time={time!r})")
        if self.monitor is not None:
            self._push_monitored(time, fn, args)
            return
        self._seq += 1
        heappush(self._queue, (time, self._seq, fn, args))

    def _post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Internal scheduling fast path: :meth:`schedule` unchecked.

        For call sites whose delay is ``0.0`` or already checked (event
        dispatch, task start, :meth:`timeout`).
        """
        if self.monitor is not None:
            self._push_monitored(self._now + delay, fn, args)
            return
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, fn, args))

    def _monitored(self, fn: Callable, args: tuple) -> ScheduledCallback:
        """The monitor's record of a callback, with its fork edge taken.

        ``on_schedule`` runs before ``seq`` moves, as for every push.
        """
        handle = ScheduledCallback(fn, args)
        self.monitor.on_schedule(handle)
        return handle

    def _push_monitored(self, time: float, fn: Callable, args: tuple) -> None:
        """Queue ``fn(*args)`` at ``time`` as a monitored slice."""
        handle = self._monitored(fn, args)
        self._seq += 1
        heappush(self._queue, (time, self._seq, self._slice, (handle,)))

    def _slice(self, handle: ScheduledCallback) -> None:
        """Run one monitored callback between the monitor's hooks."""
        monitor = self.monitor
        monitor.before_step(handle)
        try:
            handle.fn(*handle.args)
        finally:
            monitor.after_step(handle)

    def _run_slices(self, callbacks: Iterable[Callable], evt: "Event") -> None:
        """Monitored inline wake-up: each waiter is its own nested slice.

        The monitor sees what a queued wake-up would have shown it — a
        fork edge from the running context, then the waiter's slice in
        the waiter's own context — without a second queue entry.
        """
        for fn in callbacks:
            self._slice(self._monitored(fn, (evt,)))

    # ------------------------------------------------------------------
    # Events & tasks (factories live here so user code needs only `sim`)
    # ------------------------------------------------------------------
    def event(self) -> "Event":
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An event that succeeds ``delay`` seconds from now.

        For a wait that is composed or stored.  A task that just sleeps
        yields the ``float`` delay itself: one heap entry, no Event.
        """
        if not delay >= 0.0:
            raise SimulationError(f"negative or NaN delay {delay!r}")
        evt = Event(self)
        self._post(delay, evt._expire, value)
        return evt

    def timeout_at(self, time: float, value: Any = None) -> "Event":
        """An event that succeeds at absolute simulated ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule in the past or at NaN "
                f"(now={self._now!r}, time={time!r})")
        evt = Event(self)
        if self.monitor is not None:
            self._push_monitored(time, evt._expire, (value,))
        else:
            self._seq += 1
            heappush(self._queue, (time, self._seq, evt._expire, (value,)))
        return evt

    def charge(self, first: float, second: float) -> "Event":
        """Two back-to-back CPU charges as one timer.

        Ends at ``(now + first) + second`` — bit-identical to yielding
        ``timeout(first)`` then ``timeout(second)``.  Only for pairs with
        nothing observable in between: no shared-state access, no trace
        record, no branch on shared state.
        """
        if not (first >= 0.0 and second >= 0.0):
            raise SimulationError(
                f"negative or NaN delay in {(first, second)!r}")
        return self.timeout_at((self._now + first) + second)

    def any_of(self, events: Iterable["Event"]) -> "Event":
        from repro.simulator.events import AnyOf

        return AnyOf(self, list(events))

    def spawn(self, generator, name: str = "") -> "Task":
        """Start driving ``generator`` as a concurrent task."""
        from repro.simulator.process import Task

        return Task(self, generator, name=name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _reentered(self) -> NoReturn:
        raise SimulationError(
            f"Simulator.run() re-entered while Simulator.run() is "
            f"dispatching at t={self._now}: a callback, trace subscriber "
            f"or ltask must not drive the scheduler")

    def run(self, until: Optional[float] = None,
            detect_deadlock: bool = False) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the final simulation time.  With ``detect_deadlock=True``
        a :class:`DeadlockError` is raised if live tasks remain when the
        queue drains (tasks blocked on events nobody will trigger).
        An exception out of a callback leaves every later entry queued.
        """
        if self._dispatching:
            self._reentered()
        self._dispatching = True
        queue = self._queue
        wall_start = host_clock()
        if until is None:
            # hot path: one entry per lap; the clock is written only when
            # the timestamp changes, and each change counts as a batch.
            # Telemetry stays in locals and is flushed once on exit.
            executed = 0
            batches = 0
            peak = self.queue_peak
            now = -1.0                       # below every entry's time
            try:
                while queue:
                    pending = len(queue)
                    if pending > peak:
                        peak = pending
                    time, _, fn, args = heappop(queue)
                    if time != now:  # repro-check: allow[RPC008]
                        now = self._now = time
                        batches += 1
                    executed += 1
                    fn(*args)
            finally:
                self.events_executed += executed
                self.batches_executed += batches
                self.queue_peak = peak
                self.run_wall_seconds += host_clock() - wall_start
                self._dispatching = False
        else:
            try:
                while queue:
                    if queue[0][0] > until:
                        # never backwards: an earlier run may have
                        # stopped at a later ``until``
                        self._now = max(self._now, until)
                        self._raise_unobserved_failures()
                        return self._now
                    pending = len(queue)
                    if pending > self.queue_peak:
                        self.queue_peak = pending
                    time, _, fn, args = heappop(queue)
                    self._now = time
                    self.events_executed += 1
                    fn(*args)
            finally:
                self.run_wall_seconds += host_clock() - wall_start
                self._dispatching = False
        self._raise_unobserved_failures()
        if detect_deadlock and self._running_tasks > 0:
            raise DeadlockError(
                f"{self._running_tasks} task(s) blocked with no pending events "
                f"at t={self._now}"
            )
        return self._now

    def _raise_unobserved_failures(self) -> None:
        """Re-raise the first task failure that nobody joined on.

        Without this, an exception inside a spawned task would vanish
        silently — the classic swallowed-failure bug of callback systems.
        """
        for task in self._failed_tasks:
            if not task._observed:
                raise task.value

    # ------------------------------------------------------------------
    # Perf telemetry
    # ------------------------------------------------------------------
    def perf_stats(self) -> dict:
        """Host-side run-loop telemetry, accumulated across ``run`` calls.

        ``events_executed`` counts dispatched callbacks, ``queue_peak``
        is the high-water pending-entry count (sampled before every
        pop), ``batches_executed`` the number of times the unbounded run
        loop moved the clock to a new timestamp (monitored runs
        included), ``wall_seconds`` the host
        time spent inside :meth:`run`, and ``events_per_sec`` their
        ratio.  ``scheduler`` names the event-queue structure, always
        ``"heap"``.  Wall time is the one host-dependent quantity in the
        engine; it feeds telemetry only, never simulation.
        """
        wall = self.run_wall_seconds
        executed = self.events_executed
        batches = self.batches_executed
        return {
            "events_executed": float(executed),
            "queue_peak": float(self.queue_peak),
            "batches_executed": float(batches),
            "events_per_batch": (executed / batches if batches else 0.0),
            "wall_seconds": wall,
            "events_per_sec": (executed / wall if wall > 0 else 0.0),
            "scheduler": "heap",
        }

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Optional[Trace]:
        """The attached :class:`Trace` recorder (None = tracing off)."""
        return self._trace

    @trace.setter
    def trace(self, trace: Optional[Trace]) -> None:
        self._trace = trace
        self.tracing = trace is not None
        #: ``record(category, **data)``: emit a record stamped with the
        #: current time — the sink's recorder, bound once here, or a
        #: no-op.  Assigned on every path and never deleted: deleting an
        #: instance attribute de-specialises every attribute load on
        #: the simulator, untraced runs included.
        self.record: Callable[..., None] = (
            trace.recorder(self) if trace is not None else _record_nothing)


def _record_nothing(category: str, **data: Any) -> None:
    """:attr:`Simulator.record` while tracing is off: drops the record."""
