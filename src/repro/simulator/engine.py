"""The simulation event loop.

Time is a ``float`` in **seconds**.  The engine keeps pending work in
one binary heap (a plain list driven by :mod:`heapq`) ordered by
``(time, seq)``; ``seq`` is a global monotonically increasing counter so
that callbacks scheduled for the same instant run in FIFO order, which
makes every simulation fully deterministic.

Two kinds of entries coexist in the queue:

* ``(time, seq, handle)`` — cancellable, created by :meth:`Simulator.at`
  / :meth:`Simulator.schedule`, which return the
  :class:`ScheduledCallback` handle;
* ``(time, seq, fn, args)`` — slim non-cancellable entries created by
  the internal :meth:`Simulator._post` fast path (event dispatch, task
  start, timeouts), and by a task that yields a ``float`` delay, which
  pushes its own wake-up (:meth:`~repro.simulator.process.Task._wake`).
  They carry no handle object, which keeps the hottest scheduling
  operations allocation-light.

``seq`` is unique, so entry comparisons never reach the third element of
either tuple shape.

Cancellation is O(1) lazy deletion: the handle is flagged and skipped
when dispatched.  Long-lived simulations that cancel many far-future
timers (e.g. per-frame retransmission timeouts) would otherwise
accumulate dead entries, so the engine compacts the queue in one
batched pass when cancelled entries outnumber live ones.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.simulator.errors import DeadlockError, SimulationError
from repro.simulator.events import Event
from repro.simulator.hostclock import host_clock
from repro.simulator.tracing import Trace

__all__ = ["ScheduledCallback", "Simulator"]

#: queue entries are (time, seq, handle) or (time, seq, fn, args)
_HeapEntry = Tuple[Any, ...]

#: start compacting only past this many cancelled entries (tiny queues
#: are cheaper to drain lazily than to rebuild)
_COMPACT_MIN_CANCELLED = 64


class ScheduledCallback:
    """Handle for a callback sitting in the event queue.

    Supports :meth:`cancel`, which is O(1): the entry is flagged and the
    event loop skips it when dispatched (lazy deletion).  The owning
    simulator batches a compaction pass when flagged entries pile up.
    """

    __slots__ = ("sim", "time", "fn", "args", "cancelled", "origin")

    def __init__(self, sim: "Simulator", time: float, fn: Callable, args: tuple):
        self.sim = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # ``origin`` (scheduler's vector-clock snapshot) is attached by an
        # installed monitor; absent in normal runs to keep handles small.

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        sim._cancelled += 1
        if (sim._cancelled >= _COMPACT_MIN_CANCELLED
                and sim._cancelled * 2 >= len(sim._queue)):
            sim._compact()


class _NullRegion:
    """No-op stand-in for :meth:`Simulator.sync_region` without a monitor."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_REGION = _NullRegion()


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
        self._cancelled = 0          # cancelled handles still queued
        self._running_tasks = 0
        self._failed_tasks: list = []
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

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCallback:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        handle = ScheduledCallback(self, time, fn, args)
        if self.monitor is not None:
            self.monitor.on_schedule(handle)
        self._seq += 1
        heappush(self._queue, (time, self._seq, handle))
        return handle

    def at(self, time: float, fn: Callable, *args: Any) -> ScheduledCallback:
        """Run ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (now={self._now!r}, time={time!r})"
            )
        handle = ScheduledCallback(self, time, fn, args)
        if self.monitor is not None:
            self.monitor.on_schedule(handle)
        self._seq += 1
        heappush(self._queue, (time, self._seq, handle))
        return handle

    def _post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Internal non-cancellable scheduling fast path.

        Pushes a slim ``(time, seq, fn, args)`` entry — no handle
        object.  Used by the hottest call sites (event dispatch, task
        start, timeouts), which never cancel.  With a monitor installed
        it falls back to :meth:`at` so happens-before edges are kept.
        """
        if self.monitor is not None:
            self.at(self._now + delay, fn, *args)
            return
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, fn, args))

    def _run_slices(self, callbacks: Iterable[Callable], evt: "Event") -> None:
        """Monitored inline wake-up: each waiter is its own nested slice.

        The monitor sees what a queued wake-up would have shown it — a
        fork edge from the running context, then the waiter's slice in
        the waiter's own context — without a second queue entry.
        """
        monitor = self.monitor
        for fn in callbacks:
            handle = ScheduledCallback(self, self._now, fn, (evt,))
            monitor.on_schedule(handle)
            monitor.before_step(handle)
            try:
                fn(evt)
            finally:
                monitor.after_step(handle)

    def _compact(self) -> None:
        """Drop cancelled entries from the queue in one batched pass.

        In place: a running :meth:`run` loop holds the same list.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if not (type(entry[2]) is ScheduledCallback
                            and entry[2].cancelled)]
        heapify(queue)
        self._cancelled = 0

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
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        evt = Event(self)
        self._post(delay, evt._expire, value)
        return evt

    def timeout_at(self, time: float, value: Any = None) -> "Event":
        """An event that succeeds at absolute simulated ``time``."""
        evt = Event(self)
        if self.monitor is not None or time < self._now:
            self.at(time, evt._expire, value)   # monitored, or raises: past
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
        if first < 0 or second < 0:
            raise SimulationError(f"negative delay in {(first, second)!r}")
        return self.timeout_at((self._now + first) + second)

    def all_of(self, events: Iterable["Event"]) -> "Event":
        from repro.simulator.events import AllOf

        return AllOf(self, list(events))

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
    def step(self) -> bool:
        """Execute the next pending callback.  Returns False when empty."""
        queue = self._queue
        while True:
            pending = len(queue)
            if pending == 0:
                return False
            if pending > self.queue_peak:
                self.queue_peak = pending
            entry = heappop(queue)
            item = entry[2]
            if type(item) is ScheduledCallback:
                if item.cancelled:
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    continue
                self._now = entry[0]
                self.events_executed += 1
                monitor = self.monitor
                if monitor is None:
                    item.fn(*item.args)
                else:
                    monitor.before_step(item)
                    try:
                        item.fn(*item.args)
                    finally:
                        monitor.after_step(item)
                return True
            # slim non-cancellable entry: (time, seq, fn, args)
            self._now = entry[0]
            self.events_executed += 1
            item(*entry[3])
            return True

    def run(self, until: Optional[float] = None,
            detect_deadlock: bool = False) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the final simulation time.  With ``detect_deadlock=True``
        a :class:`DeadlockError` is raised if live tasks remain when the
        queue drains (tasks blocked on events nobody will trigger).
        """
        queue = self._queue
        wall_start = host_clock()
        if until is None and self.monitor is None:
            # hot path: one entry per lap; the clock is written only when
            # the timestamp changes, and each change counts as a batch.
            # Telemetry stays in locals and is flushed once on exit.  An
            # exception out of a callback leaves every later entry queued.
            executed = 0
            batches = 0
            peak = self.queue_peak
            now = -1.0                       # below every entry's time
            try:
                while queue:
                    pending = len(queue)
                    if pending > peak:
                        peak = pending
                    entry = heappop(queue)
                    if entry[0] != now:  # repro-check: allow[RPC008]
                        now = self._now = entry[0]
                        batches += 1
                    item = entry[2]
                    if type(item) is ScheduledCallback:
                        if item.cancelled:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        executed += 1
                        item.fn(*item.args)
                    else:
                        executed += 1
                        item(*entry[3])
            finally:
                self.events_executed += executed
                self.batches_executed += batches
                self.queue_peak = peak
                self.run_wall_seconds += host_clock() - wall_start
        else:
            try:
                while queue:
                    time = queue[0][0]
                    if until is not None and time > until:
                        # never backwards: an earlier run may have
                        # stopped at a later ``until``
                        self._now = max(self._now, until)
                        self._raise_unobserved_failures()
                        return self._now
                    self.step()
            finally:
                self.run_wall_seconds += host_clock() - wall_start
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

        ``events_executed`` counts dispatched callbacks (cancelled
        entries skipped at dispatch are not events), ``queue_peak`` is
        the high-water pending-entry count (sampled before every pop),
        ``batches_executed`` the number of times the unbounded run loop
        moved the clock to a new timestamp, ``wall_seconds`` the host
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
    # Concurrency-analysis hooks (no-ops unless a monitor is installed)
    # ------------------------------------------------------------------
    def sync_region(self, key: Any, label: Optional[str] = None):
        """A virtual lock region for the installed monitor.

        Models the locks the real stack takes around progress-engine
        state (e.g. PIOMan's per-node progression lock).  Regions with
        equal ``key`` are treated as one lock: the monitor serializes
        them with release->acquire happens-before edges.  Without a
        monitor this returns a shared no-op context manager.
        """
        monitor = self.monitor
        if monitor is None:
            return _NULL_REGION
        return monitor.region(key, label)

    def race_read(self, name: str, detail: Optional[str] = None) -> None:
        """Record a read of the named shared variable (monitor only)."""
        monitor = self.monitor
        if monitor is not None:
            monitor.on_access(name, False, detail)

    def race_write(self, name: str, detail: Optional[str] = None) -> None:
        """Record a write of the named shared variable (monitor only)."""
        monitor = self.monitor
        if monitor is not None:
            monitor.on_access(name, True, detail)

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
