"""Progress-engine machinery shared by every simulated MPI stack.

Two progress disciplines exist, and the difference between them is the
whole point of the paper's Section 3.3 / Fig. 7:

* **Active polling** (plain MPICH2, MVAPICH2, Open MPI): protocol work
  triggered by arriving messages runs only while the application thread
  is *inside* the MPI library (a wait/recv).  Incoming work queues in
  ``inbox`` until then.  Waits hold the core (busy-wait semantics).

* **PIOMan-delegated**: arriving work is submitted to the node's
  PIOMan, which runs it on an idle core in the background; application
  waits block on semaphores and release their core.

Subclasses implement ``_handle_item`` (protocol state machine) and may
override ``_progress_hook`` (e.g. ANY_SOURCE probing).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Iterable, Optional, Union

from repro.mpich2.request import MPIRequest
from repro.pioman import PIOMan, ProgressEngine
from repro.simulator import Event, Simulator
from repro.simulator.events import _PENDING
from repro.threads.marcel import MarcelScheduler


@dataclass(frozen=True)
class StackCosts:
    """Software overheads of the layers above the transport."""

    #: per-send CPU time in the stack's upper layers, s
    send_overhead: float = 0.15e-6
    #: per-recv-post CPU time, s
    recv_overhead: float = 0.15e-6


def _fire(parked: Event) -> None:
    """Wake the thread parked on ``parked`` unless something already did."""
    if parked._state == _PENDING:
        parked.succeed()


class BaseStack:
    """One MPI process's communication stack."""

    def __init__(self, sim: Simulator, rank: int, node, scheduler: MarcelScheduler,
                 pioman: Optional[Union[PIOMan, ProgressEngine]] = None):
        self.sim = sim
        self.rank = rank
        self.node = node
        self.scheduler = scheduler
        self.pioman = pioman
        self.inbox: Deque[Any] = deque()
        self._signal = None
        # virtual progress-lock region of this stack's node (race detector)
        self._region = ("node", node.node_id)
        self._lbl_progress = f"mpich2.progress@r{rank}"
        self._rv_inbox = f"mpich2.inbox@r{rank}"
        # stats
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # transport -> stack (callback context, no CPU charged here)
    # ------------------------------------------------------------------
    def deliver(self, item: Any) -> None:
        """Hand incoming protocol work to the progress engine."""
        if self.pioman is not None:
            self.pioman.submit(partial(self._progress_item, item),
                               rank=self.rank)
        else:
            if self.sim.monitor is not None:
                self.sim.race_write(self._rv_inbox, "deliver")
            self.inbox.append(item)
        if self._signal is not None:   # probe loops listen for arrivals too
            _fire(self._signal)

    def _progress_item(self, item: Any):
        if self.sim.monitor is None:
            yield from self._handle_item(item)
            yield from self._progress_hook()
            return
        with self.sim.sync_region(self._region, self._lbl_progress):
            yield from self._handle_item(item)
            yield from self._progress_hook()

    # ------------------------------------------------------------------
    # protocol state machine (subclass responsibility)
    # ------------------------------------------------------------------
    def _handle_item(self, item: Any):
        raise NotImplementedError
        yield  # pragma: no cover

    def _progress_hook(self):
        """Extra work after each progress step (default: nothing)."""
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # application-side waiting
    # ------------------------------------------------------------------
    def wait(self, req: MPIRequest):
        """Block until ``req`` completes, making progress as needed."""
        if self.pioman is not None:
            if req._state == _PENDING:
                yield from self.pioman.semaphore_wait(req)
            return req
        yield from self._drain()
        while req._state == _PENDING:
            if not self.inbox:
                # park on one event of our own: the next arrival fires
                # it through ``_signal``, the request through ``_waiter``
                parked = req._waiter = self._signal = self.sim.event()
                yield parked
            yield from self._drain()
        return req

    def waitall(self, reqs: Iterable[MPIRequest]):
        for req in list(reqs):
            yield from self.wait(req)

    def waitany(self, reqs):
        """Block until any request completes; returns its index."""
        reqs = list(reqs)
        if not reqs:
            raise ValueError("waitany needs at least one request")

        def first_done():
            for i, r in enumerate(reqs):
                if r.complete:
                    return i
            return None

        if self.pioman is not None:
            i = first_done()
            if i is None:
                parked = self.sim.event()
                for r in reqs:
                    r._waiter = parked
                yield from self.pioman.semaphore_wait(parked)
                i = first_done()
            return i
        yield from self._drain()
        while True:
            i = first_done()
            if i is not None:
                return i
            if not self.inbox:
                parked = self._signal = self.sim.event()
                for r in reqs:
                    r._waiter = parked
                yield parked
            yield from self._drain()

    def _drain(self):
        """Process everything pending in the inbox (active mode)."""
        with self.sim.sync_region(self._region, self._lbl_progress):
            while self.inbox:
                item = self.inbox.popleft()
                yield from self._handle_item(item)
            yield from self._progress_hook()

    # ------------------------------------------------------------------
    # probing (MPI_Probe / MPI_Iprobe support)
    # ------------------------------------------------------------------
    def probe_unexpected(self, src: Any, tag: Any):
        """Non-consuming check for a matching arrived message.

        Returns ``(source, size)`` or None.  Subclass responsibility.
        """
        raise NotImplementedError

    def progress_once(self):
        """Run the progress engine once (generator)."""
        if self.pioman is None:
            yield from self._drain()
        else:
            # background engines make this a no-op; manual_poll drains
            # its ltask queue on the calling thread here
            yield from self.pioman.progress()

    def iprobe(self, src: Any, tag: Any):
        """Nonblocking probe; generator returning (source, size) or None."""
        yield from self.progress_once()
        return self.probe_unexpected(src, tag)

    def probe(self, src: Any, tag: Any):
        """Blocking probe; generator returning (source, size)."""
        while True:
            parked = self._signal = self.sim.event()
            yield from self.progress_once()
            hit = self.probe_unexpected(src, tag)
            if hit is not None:
                return hit
            if self.pioman is not None and self.pioman.background:
                # background progress: re-check shortly after any arrival
                self.sim.schedule(2e-6, _fire, parked)
            # else active mode / manual_poll: a new arrival re-enters the
            # drain via the signal, nothing progresses without us
            yield parked

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def cpu(self, duration: float):
        """Charge CPU time to the calling thread.

        A forwarding frame: on a hot path, write the charge inline as
        ``if duration > 0.0: yield duration``.
        """
        if duration > 0.0:
            yield duration
