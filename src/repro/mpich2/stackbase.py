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
override ``_progress_hook`` (e.g. ANY_SOURCE probing).  The protocol
code takes no virtual lock: the race detector wraps ``_drain`` and
``_progress_item`` in the node's progress-lock region when it watches
a runtime (:data:`repro.analysis.race.watch.REGIONS`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Generator, Iterable, Optional, Union

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
            self.inbox.append(item)
            if self._signal is not None:   # wake a parked active-mode wait
                _fire(self._signal)

    def _progress_item(self, item: Any):
        yield from self._handle_item(item)
        hook = self._progress_hook()
        if hook is not None:
            yield from hook

    # ------------------------------------------------------------------
    # protocol state machine (subclass responsibility)
    # ------------------------------------------------------------------
    def _handle_item(self, item: Any):
        raise NotImplementedError
        yield  # pragma: no cover

    def _progress_hook(self) -> Optional[Generator]:
        """Extra work after each progress step: a plain call that returns
        None, or a generator when the work needs CPU time (default:
        nothing)."""
        return None

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

    def _drain(self):
        """Process everything pending in the inbox (active mode)."""
        while self.inbox:
            item = self.inbox.popleft()
            yield from self._handle_item(item)
        hook = self._progress_hook()
        if hook is not None:
            yield from hook

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
