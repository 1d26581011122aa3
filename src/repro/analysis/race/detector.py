"""Happens-before race detection for the simulated stack.

The DES engine serializes everything, so nothing ever *crashes* from a
data race — but the real stack this simulates is concurrent: PIOMan
ltasks, driver completion callbacks and application threads all touch
the posted/unexpected queues, the retransmit maps and the rail-health
state.  In the simulation those contexts are only ordered by the event
heap's FIFO tie-break, which is an *accident* of scheduling, not a
guarantee the modelled code provides.

This module is TSan for the DES: it rebuilds the *enforced* causality
(and only that) as vector clocks and reports shared-state accesses that
are unordered under it.

Happens-before edges
--------------------
fork
    ``sim.schedule`` inside a callback: the scheduled callback inherits
    a snapshot of the scheduler's clock.  Event triggering is built on
    this (``Event.succeed`` schedules waiter callbacks), so join edges
    — waiter resumes after triggerer — come with it.
sync
    ``Semaphore``/``Mutex``/``Channel`` operations: a release publishes
    the releaser's clock into the primitive, an acquire joins it.
region
    ``sim.sync_region(key)`` — the virtual locks the real stack takes
    around progress-engine state (PIOMan's ``piom_lock``; the paper's
    Section 3.3 synchronization).  All regions with the same key are
    serialized: entering joins the region clock, leaving publishes to
    it, and a region held across a task suspension re-synchronizes at
    every slice boundary.

Execution contexts
------------------
Each heap callback slice runs in a context: durable per ``Task`` (one
application thread, one PIOMan worker), durable per ``Event`` (its
trigger/dispatch chain), ephemeral per plain callback (a NIC completion,
a retransmit timer).  A context's clock ticks once per slice; accesses
are tagged ``(context, tick)``.

An access pair on the same variable, at least one a write, from two
different contexts, neither ordered before the other, is reported as a
race with both contexts' sim-event stacks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

Clock = Dict[int, int]


def vc_join(into: Clock, other: Clock) -> None:
    """Pointwise max, in place."""
    for cid, tick in other.items():
        if into.get(cid, 0) < tick:
            into[cid] = tick


class ExecContext:
    """One simulated execution context (thread-analog)."""

    __slots__ = ("cid", "name", "kind", "vc", "held", "stack")

    def __init__(self, cid: int, name: str, kind: str):
        self.cid = cid
        self.name = name
        self.kind = kind                      # task | event | callback | main
        self.vc: Clock = {cid: 0}
        self.held: Dict["SyncClock", int] = {}  # region -> reentry depth
        self.stack: List[str] = []            # region labels, innermost last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ctx {self.name}>"


class SyncClock:
    """Clock holder for a sync primitive or a virtual lock region."""

    __slots__ = ("key", "label", "vc")

    def __init__(self, key: Any, label: Optional[str]):
        self.key = key
        self.label = label
        self.vc: Clock = {}


@dataclass(frozen=True)
class Access:
    """One recorded access to a watched variable."""

    ctx_name: str
    ctx_kind: str
    cid: int
    tick: int
    write: bool
    time: float
    where: str                     # source location of the access
    regions: Tuple[str, ...]       # region-label stack at access time
    detail: Optional[str]

    def format(self) -> str:
        kind = "write" if self.write else "read"
        regions = " > ".join(self.regions) if self.regions else "(no region)"
        text = (f"{kind} at t={self.time * 1e6:.3f}us in {self.ctx_name} "
                f"[{self.ctx_kind}]\n      at {self.where}\n"
                f"      sim-event stack: {regions}")
        if self.detail:
            text += f"\n      detail: {self.detail}"
        return text


@dataclass(frozen=True)
class RaceFinding:
    """Two unordered conflicting accesses to one variable."""

    var: str
    first: Access
    second: Access

    def format(self) -> str:
        return (f"RACE on {self.var}\n"
                f"  (1) {self.first.format()}\n"
                f"  (2) {self.second.format()}")


@dataclass
class RaceReport:
    """Outcome of one detector run."""

    races: List[RaceFinding]
    accesses: int = 0
    contexts: int = 0
    syncs: int = 0
    variables: int = 0
    dropped: int = 0               # findings beyond the report cap

    @property
    def clean(self) -> bool:
        return not self.races and not self.dropped

    def format_text(self) -> str:
        lines = [f"race detector: {self.accesses} accesses to "
                 f"{self.variables} shared variables across "
                 f"{self.contexts} contexts ({self.syncs} sync edges)"]
        if self.clean:
            lines.append("no unordered conflicting accesses found")
        else:
            lines.append(f"{len(self.races) + self.dropped} race(s) found:")
            for race in self.races:
                lines.append("")
                lines.append(race.format())
            if self.dropped:
                lines.append(f"... and {self.dropped} more (report cap)")
        return "\n".join(lines)


@dataclass
class _VarState:
    last_write: Optional[Access] = None
    reads: Dict[int, Access] = field(default_factory=dict)  # cid -> access


class _Region:
    """Context manager returned by :meth:`RaceDetector.region`."""

    __slots__ = ("det", "key", "label")

    def __init__(self, det: "RaceDetector", key: Any, label: Optional[str]):
        self.det = det
        self.key = key
        self.label = label

    def __enter__(self) -> "_Region":
        self.det.region_enter(self.key, self.label)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.det.region_exit(self.key)
        return False


class RaceDetector:
    """Engine monitor implementing the happens-before check.

    Install with :meth:`install` (sets ``sim.monitor``); the engine then
    feeds ``on_schedule`` / ``before_step`` / ``after_step``, sync
    primitives feed ``sync_acquire`` / ``sync_release``, and the
    instrumented stack feeds ``on_access`` and ``region``.
    """

    def __init__(self, max_reports: int = 25):
        self.max_reports = max_reports
        self.sim: Any = None
        self._next_cid = 0
        self._durable: Dict[int, ExecContext] = {}   # id(obj) -> ctx
        self._pinned: List[Any] = []                 # keep durable owners alive
        self._syncs: Dict[Any, SyncClock] = {}
        self._vars: Dict[str, _VarState] = {}
        self._seen_pairs: set = set()
        self.races: List[RaceFinding] = []
        self.dropped = 0
        self.accesses = 0
        self.sync_edges = 0
        self.main = self._new_context("main", "main")
        self.current = self.main
        # contexts suspended by a nested slice (a timer running its
        # waiters inside its own queue entry), innermost last
        self._suspended: List[ExecContext] = []

    # ------------------------------------------------------------------
    def install(self, sim: Any) -> None:
        self.sim = sim
        sim.monitor = self

    def _new_context(self, name: str, kind: str) -> ExecContext:
        ctx = ExecContext(self._next_cid, name, kind)
        self._next_cid += 1
        return ctx

    def _context_for(self, handle: Any) -> ExecContext:
        """Durable context for Task/Event-bound callbacks, else ephemeral."""
        from repro.simulator.events import Event
        from repro.simulator.process import Task

        fn = handle.fn
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Event):
            ctx = self._durable.get(id(owner))
            if ctx is None:
                if isinstance(owner, Task):
                    name = f"task:{owner.name or 'anon'}"
                    kind = "task"
                else:
                    name = f"event:{type(owner).__name__}#{self._next_cid}"
                    kind = "event"
                ctx = self._new_context(name, kind)
                self._durable[id(owner)] = ctx
                self._pinned.append(owner)
            return ctx
        label = getattr(fn, "__qualname__", None) or repr(fn)
        return self._new_context(f"cb:{label}#{self._next_cid}", "callback")

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_schedule(self, handle: Any) -> None:
        """Fork edge: the callback inherits the scheduler's clock."""
        handle.origin = dict(self.current.vc)

    def before_step(self, handle: Any) -> None:
        ctx = self._context_for(handle)
        ctx.vc[ctx.cid] = ctx.vc.get(ctx.cid, 0) + 1   # new slice
        origin = getattr(handle, "origin", None)
        if origin is not None:
            vc_join(ctx.vc, origin)
        for lock in ctx.held:                           # held regions re-sync
            vc_join(ctx.vc, lock.vc)
        self._suspended.append(self.current)
        self.current = ctx

    def after_step(self, handle: Any) -> None:
        ctx = self.current
        for lock in ctx.held:
            vc_join(lock.vc, ctx.vc)
        self.current = self._suspended.pop()

    # ------------------------------------------------------------------
    # Sync primitives and virtual lock regions
    # ------------------------------------------------------------------
    def _sync(self, key: Any, label: Optional[str] = None) -> SyncClock:
        clock = self._syncs.get(key)
        if clock is None:
            clock = self._syncs[key] = SyncClock(key, label)
        elif label and clock.label is None:
            clock.label = label
        return clock

    def sync_acquire(self, key: Any) -> None:
        """The current context observes everything published to ``key``."""
        vc_join(self.current.vc, self._sync(key).vc)
        self.sync_edges += 1

    def sync_release(self, key: Any) -> None:
        """Publish the current context's clock into ``key``."""
        vc_join(self._sync(key).vc, self.current.vc)
        self.sync_edges += 1

    def region(self, key: Any, label: Optional[str] = None) -> _Region:
        return _Region(self, key, label)

    def region_enter(self, key: Any, label: Optional[str] = None) -> None:
        ctx = self.current
        lock = self._sync(key, label)
        vc_join(ctx.vc, lock.vc)
        ctx.held[lock] = ctx.held.get(lock, 0) + 1
        ctx.stack.append(label or str(key))
        self.sync_edges += 1

    def region_exit(self, key: Any) -> None:
        ctx = self.current
        lock = self._sync(key)
        vc_join(lock.vc, ctx.vc)
        depth = ctx.held.get(lock, 0) - 1
        if depth > 0:
            ctx.held[lock] = depth
        else:
            ctx.held.pop(lock, None)
        if ctx.stack:
            ctx.stack.pop()

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def on_access(self, name: str, write: bool,
                  detail: Optional[str] = None) -> None:
        ctx = self.current
        self.accesses += 1
        frame = sys._getframe(2)   # caller -> Simulator.race_* -> here
        where = f"{frame.f_code.co_filename}:{frame.f_lineno}"
        access = Access(ctx_name=ctx.name, ctx_kind=ctx.kind, cid=ctx.cid,
                        tick=ctx.vc[ctx.cid], write=write,
                        time=self.sim.now if self.sim is not None else 0.0,
                        where=where, regions=tuple(ctx.stack), detail=detail)
        var = self._vars.get(name)
        if var is None:
            var = self._vars[name] = _VarState()

        def ordered(prev: Access) -> bool:
            return ctx.vc.get(prev.cid, 0) >= prev.tick

        if write:
            conflicts = list(var.reads.values())
            if var.last_write is not None:
                conflicts.append(var.last_write)
            for prev in conflicts:
                if prev.cid != ctx.cid and not ordered(prev):
                    self._report(name, prev, access)
            var.last_write = access
            var.reads = {}
        else:
            prev = var.last_write
            if prev is not None and prev.cid != ctx.cid and not ordered(prev):
                self._report(name, prev, access)
            var.reads[ctx.cid] = access

    def _report(self, name: str, first: Access, second: Access) -> None:
        key = (name, first.where, second.where, first.write, second.write)
        if key in self._seen_pairs:
            return
        self._seen_pairs.add(key)
        if len(self.races) >= self.max_reports:
            self.dropped += 1
            return
        self.races.append(RaceFinding(var=name, first=first, second=second))

    # ------------------------------------------------------------------
    def report(self) -> RaceReport:
        return RaceReport(races=list(self.races),
                          accesses=self.accesses,
                          contexts=self._next_cid,
                          syncs=self.sync_edges,
                          variables=len(self._vars),
                          dropped=self.dropped)
