"""Pluggable progress engines: the Zhou et al. 2024 design space.

The paper's claim (Section 3.3) is that PIOMan's *threaded* progress —
a per-node worker that opportunistically grabs idle cores — wins
communication/computation overlap.  "MPI Progress For All" (Zhou et
al. 2024, arXiv 2405.13807) catalogs the modern alternatives; this
module turns :mod:`repro.pioman.manager` into one implementation of a
pluggable :class:`ProgressEngine` contract and adds two of them:

``pioman`` (reference)
    The 2009 threaded engine from :class:`repro.pioman.manager.PIOMan`,
    byte-identical to the pre-refactor behaviour.  Background progress,
    per-message sync overhead, ``poll_period`` detection latency.

``manual_poll``
    No progress thread at all: ltasks only run when a rank is *inside*
    an MPI call (``wait``/``probe``/``progress_once``).  Zero per-message
    synchronization cost (``sync_cost`` is 0) and zero detection latency
    once inside the library — but no overlap: progress stops dead while
    the application computes.

``dedicated_thread``
    One dedicated progress task per node serving per-rank ltask queues,
    stealing work across ranks' queues round-robin.  Always polling, so
    newly submitted work is picked up without the ``poll_period`` delay;
    pays the same per-message synchronization as PIOMan (the queues are
    still shared with the application threads).

Selection: an explicit ``StackSpec.progress`` kind wins, else the
``REPRO_PROGRESS`` environment variable, else the reference engine.
Campaign executors *pin* the engine into the point config (see
``campaign.executors``): campaign results are content-addressed by the
point alone, so an ambient env knob must never change them.

Engine contract (duck-typed; ``PIOMan`` is the reference implementation):

* ``kind`` — registry name; ``params`` — :class:`PIOManParams`;
  ``ltasks_run`` — dispatch counter.
* ``background`` — True if progress happens without application
  involvement (drives the stack's probe/wait strategy).
* ``submit(work, rank=0)`` — queue an ltask (generator factory).
* ``semaphore_wait(event)`` — generator: block the caller on ``event``
  (core held on entry and on return).
* ``progress()`` — generator: make progress on the *calling* thread
  (no-op for background engines).
* ``sync_cost(shm)`` — per-message synchronization overhead charged by
  the stack on each send/recv half.  A pure function of the frozen
  ``params``: the stack reads both halves once, when it is built.
* ``teardown()`` — drop pending ltasks and stop background work.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Deque, Dict, Generator, List, Optional, Type

from repro.pioman.manager import PIOMan, PIOManParams
from repro.simulator import Event, Simulator
from repro.simulator.events import _PENDING
from repro.threads.marcel import MarcelScheduler

#: environment knob consulted when no progress kind is given
PROGRESS_ENV = "REPRO_PROGRESS"

_DEFAULT_KIND = "pioman"


class ProgressEngine:
    """Base for the alternative engines (PIOMan predates it, duck-typed).

    Subclasses must set :attr:`kind`/:attr:`background` and implement
    :meth:`submit`, :meth:`semaphore_wait` and :meth:`progress`.
    """

    kind = "abstract"
    background = True

    def __init__(self, sim: Simulator, scheduler: MarcelScheduler,
                 params: PIOManParams = PIOManParams()):
        self.sim = sim
        self.scheduler = scheduler
        self.params = params
        self.ltasks_run = 0
        self._rv_queue = f"pioman.queue@n{scheduler.node_id}"

    # -- contract --------------------------------------------------------
    def submit(self, work: Callable[[], Generator], rank: int = 0) -> None:
        raise NotImplementedError

    def semaphore_wait(self, event: Event) -> Generator:
        raise NotImplementedError

    def progress(self) -> Generator:
        """Run queued ltasks on the calling thread; no-op if background."""
        return
        yield  # pragma: no cover - makes this a generator

    def sync_cost(self, shm: bool) -> float:
        """Per-message synchronization overhead (one half, send or recv)."""
        p = self.params
        return (p.sync_shm if shm else p.sync_net) / 2.0

    def teardown(self) -> None:
        """Drop pending ltasks and stop background work."""

    # -- shared machinery ------------------------------------------------
    def _run_ltask(self, work: Callable[[], Generator],
                   pending: int) -> Generator:
        """Charge dispatch cost and run one ltask under the node lock."""
        self.ltasks_run += 1
        node = self.scheduler.node_id
        span_start = None
        if self.sim.tracing:
            span_start = self.sim._now
            self.sim.record("pioman.ltask.begin", node=node, pending=pending)
            self.sim.record("pioman.ltask", node=node, pending=pending,
                            dur=self.params.ltask_cost)
            self.sim.record("pioman.engine.ltask", node=node,
                            engine=self.kind, pending=pending,
                            dur=self.params.ltask_cost)
        yield self.params.ltask_cost
        # same progression lock as the reference engine (piom_lock, §3.3)
        if self.sim.monitor is None:
            yield from work()
        else:
            with self.sim.sync_region(("node", node), "pioman.ltask"):
                yield from work()
        if span_start is not None:
            self.sim.record("pioman.ltask.end", node=node,
                            dur=self.sim._now - span_start)


class ManualPollEngine(ProgressEngine):
    """Progress only inside MPI calls (Zhou et al.'s *manual* mode).

    The application thread itself drains the ltask queue whenever it
    enters the library, holding its own core the whole time (spin
    semantics).  There is no shared progress state to lock, so
    :meth:`sync_cost` is zero — the engine trades all overlap away for
    the lowest possible per-message overhead.
    """

    kind = "manual_poll"
    background = False

    def __init__(self, sim: Simulator, scheduler: MarcelScheduler,
                 params: PIOManParams = PIOManParams()):
        super().__init__(sim, scheduler, params)
        self._queue: Deque[Callable[[], Generator]] = deque()
        self._signal: Optional[Event] = None
        self._torn_down = False

    def submit(self, work: Callable[[], Generator], rank: int = 0) -> None:
        if self.sim.monitor is not None:
            self.sim.race_write(self._rv_queue, "submit")
        if self._torn_down:
            return
        self._queue.append(work)
        if self._signal is not None and self._signal._state == _PENDING:
            self._signal.succeed()

    def progress(self) -> Generator:
        """Drain every queued ltask on the calling thread."""
        if self._queue and self.sim.tracing:
            self.sim.record("pioman.engine.poll",
                            node=self.scheduler.node_id,
                            engine=self.kind, pending=len(self._queue))
        while self._queue:
            # drain runs on the calling thread; each pop is serialized
            # by _run_ltask's progression lock
            # repro-check: allow[RPC004] calling-thread drain under piom_lock
            work = self._queue.popleft()
            yield from self._run_ltask(work, pending=len(self._queue))

    def _arrival_signal(self) -> Event:
        # one shared event, re-armed only once it has fired: with several
        # ranks' threads parked on the same node engine, a fresh event per
        # waiter would orphan all but the newest
        if self._signal is None or self._signal._state != _PENDING:
            self._signal = self.sim.event()
        return self._signal

    def semaphore_wait(self, event: Event) -> Generator:
        """Poll for progress until ``event`` triggers (core held)."""
        while event._state == _PENDING:
            yield from self.progress()
            if event._state != _PENDING:
                return
            if not self._queue:
                yield self.sim.any_of([event, self._arrival_signal()])

    def sync_cost(self, shm: bool) -> float:
        return 0.0

    def teardown(self) -> None:
        self._torn_down = True
        # repro-check: allow[RPC004] shutdown path, no tasks are active
        self._queue.clear()


class DedicatedThreadEngine(ProgressEngine):
    """One dedicated progress task per node, stealing across rank queues.

    Each rank submits into its own queue; a single persistent worker
    serves the queues round-robin, *stealing* from another rank's queue
    whenever its current one is empty.  The worker is modeled as always
    polling: newly submitted work is dispatched without PIOMan's
    ``poll_period`` detection delay.  The queues are still shared with
    the application threads, so the per-message ``sync_cost`` is the
    same as the reference engine's.
    """

    kind = "dedicated_thread"
    background = True

    def __init__(self, sim: Simulator, scheduler: MarcelScheduler,
                 params: PIOManParams = PIOManParams()):
        super().__init__(sim, scheduler, params)
        self._queues: Dict[int, Deque[Callable[[], Generator]]] = {}
        self._order: List[int] = []   # ranks in first-submit order
        self._serving = 0             # index into _order: current queue
        self._pending = 0
        self._wake: Optional[Event] = None
        self._worker_spawned = False
        self._stopped = False
        self.steals = 0

    def submit(self, work: Callable[[], Generator], rank: int = 0) -> None:
        if self.sim.monitor is not None:
            self.sim.race_write(self._rv_queue, "submit")
        if self._stopped:
            return
        queue = self._queues.get(rank)
        if queue is None:
            queue = self._queues[rank] = deque()
            self._order.append(rank)
        queue.append(work)
        self._pending += 1
        if not self._worker_spawned:
            self._worker_spawned = True
            self.scheduler.spawn(
                self._worker(),
                name=f"progress-{self.scheduler.node_id}")
        elif self._wake is not None and self._wake._state == _PENDING:
            self._wake.succeed()

    def _take(self):
        """Pop the next ltask, round-robin with stealing; None if empty."""
        n = len(self._order)
        for i in range(n):
            idx = (self._serving + i) % n
            queue = self._queues[self._order[idx]]
            if queue:
                stolen = idx != self._serving
                self._serving = idx
                self._pending -= 1
                return self._order[idx], queue.popleft(), stolen
        return None

    def _worker(self) -> Generator:
        node = self.scheduler.node_id
        while not self._stopped:
            if not self._pending:
                self._wake = self.sim.event()
                yield self._wake
                if self._stopped:
                    break
            # Dedicated thread: it is always polling, so work is noticed
            # immediately — no poll_period charge, unlike the reference.
            if not self.scheduler.try_acquire_core():
                if self.sim.tracing:
                    self.sim.record("pioman.poll", node=node,
                                    mode="wait_core", pending=self._pending)
                yield self.scheduler.acquire_core()
            elif self.sim.tracing:
                self.sim.record("pioman.poll", node=node,
                                mode="idle_core", pending=self._pending)
            while self._pending and not self._stopped:
                rank, work, stolen = self._take()
                if stolen:
                    self.steals += 1
                    if self.sim.tracing:
                        self.sim.record("pioman.engine.steal", node=node,
                                        victim=rank, pending=self._pending)
                yield from self._run_ltask(work, pending=self._pending)
            self.scheduler.release_core()

    #: the reference engine's blocking-wait model, shared not copied
    semaphore_wait = PIOMan.semaphore_wait

    def teardown(self) -> None:
        self._stopped = True
        for queue in self._queues.values():
            queue.clear()
        self._pending = 0
        if self._wake is not None and self._wake._state == _PENDING:
            self._wake.succeed()


#: registry: kind name -> engine class (PIOMan is the reference)
ENGINE_KINDS: Dict[str, Type] = {
    "pioman": PIOMan,
    "manual_poll": ManualPollEngine,
    "dedicated_thread": DedicatedThreadEngine,
}


def make_engine(kind: Optional[str], sim: Simulator,
                scheduler: MarcelScheduler,
                params: PIOManParams = PIOManParams()):
    """Build a progress engine.

    ``kind`` may be a registry name or ``None`` — in which case the
    ``REPRO_PROGRESS`` environment variable decides, defaulting to the
    reference ``pioman`` engine.
    """
    if kind is None:
        kind = os.environ.get(PROGRESS_ENV) or _DEFAULT_KIND
    try:
        cls = ENGINE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown progress engine {kind!r}; "
            f"expected one of {sorted(ENGINE_KINDS)}") from None
    return cls(sim, scheduler, params)
