"""The PIOMan manager: background ltask execution + semaphore waits.

Model
-----
Progress work (an "ltask": process an arrived frame, advance a
rendezvous handshake, submit the next packet) is submitted as a
generator factory.  A single per-node worker thread drains the ltask
queue, holding a core while it runs.  Detection latency emerges from
the model:

* an idle core exists → the worker starts after ``poll_period`` (the
  polling granularity of the real PIOMan);
* all cores busy → the worker waits for a core, i.e. until some thread
  blocks or finishes — the paper's "progress at context switches /
  on idle CPUs".

``semaphore_wait`` is the replacement for busy-wait loops: the calling
thread gives up its core while blocked and reacquires it on wake-up.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Generator

from repro.simulator import Event, Simulator
from repro.simulator.events import _PENDING
from repro.threads.marcel import MarcelScheduler


@dataclass(frozen=True)
class PIOManParams:
    """PIOMan cost constants (calibrated to Fig. 6)."""

    #: polling granularity — mean delay before an idle-core worker
    #: notices newly submitted work (s)
    poll_period: float = 0.1e-6
    #: CPU cost of dispatching one ltask (queue + lock handling), s
    ltask_cost: float = 0.05e-6
    #: added per-message synchronization on the shared-memory path, s
    #: (charged by the stack, split across send/recv: Fig. 6a ≈ +450 ns)
    sync_shm: float = 0.20e-6
    #: added per-message synchronization on the network path, s
    #: (request-list and driver locking: Fig. 6b ≈ +2 us)
    sync_net: float = 1.55e-6
    #: cost to unblock a semaphore-waiting thread, s
    wakeup_cost: float = 0.05e-6


class PIOMan:
    """Per-node I/O manager — the *reference* progress engine.

    The pluggable layer lives in :mod:`repro.pioman.engines`; PIOMan is
    registered there under kind ``"pioman"`` and its behaviour is pinned
    byte-identical to the pre-refactor goldens by the cross-engine
    differential suite (``tests/pioman/test_engine_differential.py``).
    """

    #: registry name in :data:`repro.pioman.engines.ENGINE_KINDS`
    kind = "pioman"

    def __init__(self, sim: Simulator, scheduler: MarcelScheduler,
                 params: PIOManParams = PIOManParams()):
        self.sim = sim
        self.scheduler = scheduler
        self.params = params
        self._queue: Deque[Callable[[], Generator]] = deque()
        self._worker_running = False
        self.ltasks_run = 0
        self._worker_name = f"pioman-{scheduler.node_id}"

    # -- background work -------------------------------------------------
    def submit(self, work: Callable[[], Generator],
               rank: int = 0) -> None:
        """Queue an ltask: ``work()`` must return a generator to run.

        The generator executes on the PIOMan worker thread while it
        holds a core; its simulated duration is whatever it yields.
        ``rank`` is accepted for engine-contract compatibility and
        ignored: the reference engine keeps one shared per-node queue.
        """
        self._queue.append(work)
        if not self._worker_running:
            self._worker_running = True
            self.scheduler.spawn(self._worker(), name=self._worker_name)

    def _worker(self) -> Generator:
        while self._queue:
            if not self.scheduler.try_acquire_core():
                # Fully loaded node: wait until a core frees up
                # (a thread blocked or finished) — "context switch" progression.
                if self.sim.tracing:
                    self.sim.record("pioman.poll", node=self.scheduler.node_id,
                                    mode="wait_core", pending=len(self._queue))
                yield self.scheduler.acquire_core()
            else:
                # Idle core available: model the polling granularity.
                if self.sim.tracing:
                    self.sim.record("pioman.poll", node=self.scheduler.node_id,
                                    mode="idle_core", pending=len(self._queue))
                yield self.params.poll_period
            # Drain everything currently queued in one core acquisition.
            while self._queue:
                work = self._queue.popleft()
                self.ltasks_run += 1
                span_start = None
                if self.sim.tracing:
                    span_start = self.sim._now
                    self.sim.record("pioman.ltask.begin",
                                    node=self.scheduler.node_id,
                                    pending=len(self._queue))
                    self.sim.record("pioman.ltask", node=self.scheduler.node_id,
                                    pending=len(self._queue),
                                    dur=self.params.ltask_cost)
                yield self.params.ltask_cost
                # the ltask runs under the node's progression lock (the
                # piom_lock of Section 3.3): the race detector's wrapped
                # ``submit`` makes ``work()`` enter that region
                yield from work()
                if span_start is not None:
                    self.sim.record("pioman.ltask.end",
                                    node=self.scheduler.node_id,
                                    dur=self.sim._now - span_start)
            self.scheduler.release_core()
        self._worker_running = False

    # -- blocking waits ----------------------------------------------------
    def semaphore_wait(self, event: Event) -> Generator:
        """Block the calling thread on ``event`` without holding its core.

        The caller must hold a core on entry; it holds one again on
        return.  This is the paper's replacement of busy-waiting with
        semaphore-like primitives (Section 3.3.2).
        """
        if event._state != _PENDING:
            return
        sim = self.sim
        if sim.tracing:
            sim.record("pioman.sem_wait", node=self.scheduler.node_id)
        self.scheduler.release_core()
        blocked_at = sim._now
        yield event
        if sim.tracing:
            sim.record("pioman.sem_wake", node=self.scheduler.node_id,
                       waited=sim._now - blocked_at,
                       dur=self.params.wakeup_cost)
        yield self.params.wakeup_cost
        if not self.scheduler.try_acquire_core():
            yield self.scheduler.acquire_core()

    # -- engine contract (see repro.pioman.engines) ------------------------
    def sync_cost(self, shm: bool) -> float:
        """Per-message synchronization overhead (one half, send or recv)."""
        return (self.params.sync_shm if shm else self.params.sync_net) / 2.0
