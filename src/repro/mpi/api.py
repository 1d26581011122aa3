"""The Communicator: point-to-point API and compute phases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.mpi import collectives as _coll
from repro.mpi.datatypes import CONTIGUOUS, Datatype
from repro.mpich2.queues import ContextAnyTag
from repro.mpich2.request import ANY_SOURCE, ANY_TAG, MPIRequest

__all__ = ["Message", "Communicator"]


@dataclass
class Message:
    """What a receive returns."""

    source: int
    tag: Any
    size: int
    data: Any = None


class Communicator:
    """Per-rank handle binding a program to its simulated stack.

    All communication methods are generators (``yield from`` them).
    """

    #: every communicator is the world: its context tags all traffic
    context = ("world",)

    def __init__(self, runtime, rank: int):
        self._runtime = runtime
        self.rank = rank
        self.size = runtime.nprocs
        self.stack = runtime.stacks[rank]
        self.scheduler = runtime.scheduler_of(rank)
        self.sim = runtime.sim
        self._coll_seq = 0
        # self-message matching (sends to one's own rank): messages not
        # yet received, and receives not yet matched, both oldest first
        self._self_pending: List[Tuple[Any, int, Any]] = []
        self._self_waiting: List[MPIRequest] = []

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, dst: int, tag: Any = 0, size: int = 0, data: Any = None,
              datatype: Datatype = CONTIGUOUS, sync: bool = False):
        """Nonblocking send; returns an :class:`MPIRequest`."""
        if not 0 <= dst < self.size:
            raise ValueError(f"rank {dst} out of range for size {self.size}")
        if dst == self.rank:
            return self._self_send(tag, size, data)
        if not datatype.contiguous:
            pack = datatype.pack_cost(self.stack.node.mem, size)
            if pack:
                yield pack
        req = yield from self.stack.isend(
            dst,
            ContextAnyTag(self.context) if tag is ANY_TAG else (self.context, tag),
            size, data, sync=sync)
        return req

    def issend(self, dst: int, tag: Any = 0, size: int = 0, data: Any = None,
               datatype: Datatype = CONTIGUOUS):
        """Nonblocking synchronous send (MPI_Issend): the request
        completes only once the matching receive has started."""
        req = yield from self.isend(dst, tag, size, data, datatype, sync=True)
        return req

    def ssend(self, dst: int, tag: Any = 0, size: int = 0, data: Any = None,
              datatype: Datatype = CONTIGUOUS):
        """Blocking synchronous send (MPI_Ssend)."""
        req = yield from self.issend(dst, tag, size, data, datatype)
        yield from self.wait(req)

    def irecv(self, src: Any = ANY_SOURCE, tag: Any = 0,
              datatype: Datatype = CONTIGUOUS):
        """Nonblocking receive; returns an :class:`MPIRequest`.

        An ``ANY_SOURCE`` receive matches a message this rank sends to
        itself only if the send came first."""
        if src is ANY_SOURCE:
            req = self._self_recv(tag, wildcard=True) if self._self_pending else None
            if req is not None:
                return req
        else:
            if not 0 <= src < self.size:
                raise ValueError(f"rank {src} out of range for size {self.size}")
            if src == self.rank:
                return self._self_recv(tag)
        req = yield from self.stack.irecv(
            src,
            ContextAnyTag(self.context) if tag is ANY_TAG else (self.context, tag))
        req.datatype = datatype
        return req

    def _op_begin(self, op: str, **extra) -> float:
        """Open an ``mpich2.op`` span (span-profiler food; tracing on
        only); returns the start time."""
        sim = self.sim
        sim.record("mpich2.op.begin", op=op, rank=self.rank, **extra)
        return sim._now

    def _op_end(self, op: str, started: float) -> None:
        sim = self.sim
        sim.record("mpich2.op.end", op=op, rank=self.rank,
                   dur=sim._now - started)

    def wait(self, req):
        """Block until ``req`` completes; returns a :class:`Message`."""
        sim = self.sim
        if sim.tracing:
            # the span is opened and closed inline: two waits per message
            started = sim._now
            sim.record("mpich2.op.begin", op="wait", rank=self.rank)
        else:
            started = None
        yield from self.stack.wait(req)
        if req.datatype is not None and not req.datatype.contiguous:
            # unpack into the strided user layout (size known post-match)
            unpack = req.datatype.pack_cost(self.stack.node.mem, req.size)
            if unpack:
                yield unpack
        source = req.status_source
        if source is None:
            source = req.peer if req.kind == "recv" else self.rank
        tag = req.status_tag if req.status_tag is not None else req.tag
        if (type(tag) is tuple and len(tag) == 2
                and tag[0] == self.context):
            tag = tag[1]
        msg = Message(source, tag, req.size, req.data)
        if started is not None:
            sim.record("mpich2.op.end", op="wait", rank=self.rank,
                       dur=sim._now - started)
        return msg

    def waitall(self, reqs):
        """Wait on every request; returns the list of messages."""
        out = []
        for req in list(reqs):
            msg = yield from self.wait(req)
            out.append(msg)
        return out

    def send(self, dst: int, tag: Any = 0, size: int = 0, data: Any = None,
             datatype: Datatype = CONTIGUOUS):
        """Blocking send (complete when the buffer is reusable)."""
        started = (self._op_begin("send", peer=dst, size=size)
                   if self.sim.tracing else None)
        req = yield from self.isend(dst, tag, size, data, datatype)
        yield from self.wait(req)
        if started is not None:
            self._op_end("send", started)

    def recv(self, src: Any = ANY_SOURCE, tag: Any = 0,
             datatype: Datatype = CONTIGUOUS):
        """Blocking receive; returns the :class:`Message`."""
        started = (self._op_begin("recv",
                                  peer="ANY" if src is ANY_SOURCE else src)
                   if self.sim.tracing else None)
        req = yield from self.irecv(src, tag, datatype)
        msg = yield from self.wait(req)
        if started is not None:
            self._op_end("recv", started)
        return msg

    def sendrecv(self, dst: int, src: Any, tag: Any = 0, size: int = 0,
                 data: Any = None, recv_tag: Any = None):
        """Simultaneous send+receive (deadlock-free exchange)."""
        started = (self._op_begin("sendrecv", peer=dst, size=size)
                   if self.sim.tracing else None)
        rreq = yield from self.irecv(src, tag if recv_tag is None else recv_tag)
        sreq = yield from self.isend(dst, tag, size, data)
        yield from self.stack.wait(sreq)
        msg = yield from self.wait(rreq)
        if started is not None:
            self._op_end("sendrecv", started)
        return msg

    # ------------------------------------------------------------------
    # threads (MPI_THREAD_MULTIPLE extension — paper Section 3.3.2)
    # ------------------------------------------------------------------
    def spawn_thread(self, gen):
        """Run ``gen`` as an additional application thread of this rank.

        The thread competes for the node's cores like any Marcel thread.
        The paper's Section 3.3.2 motivation applies: with PIOMan,
        threads blocked in ``wait`` sit on semaphores and *release*
        their core, so sibling threads can compute; without PIOMan every
        waiting thread busy-polls and burns a core.

        Returns a handle for :meth:`join`.
        """
        sched = self.scheduler

        def body():
            yield sched.acquire_core()
            try:
                result = yield from gen
            finally:
                sched.release_core()
            return result

        return self.sim.spawn(body(), name=f"rank{self.rank}-thread")

    def join(self, thread):
        """Block until a spawned thread finishes; returns its result.

        With PIOMan the joining thread releases its core while blocked
        (semaphore semantics); otherwise it busy-waits, holding it.
        """
        if not thread.triggered:
            if self.stack.pioman is not None:
                yield from self.stack.pioman.semaphore_wait(thread)
            else:
                yield thread
        if not thread.ok:
            raise thread.value
        return thread.value

    # ------------------------------------------------------------------
    # compute phases
    # ------------------------------------------------------------------
    def compute(self, seconds: float):
        """Burn CPU for ``seconds`` (scaled by the stack's efficiency)."""
        eff = self._runtime.compute_efficiency
        yield from self.scheduler.compute(seconds / eff)

    def compute_flops(self, flops: float):
        """Burn the CPU time ``flops`` operations take on one core."""
        yield from self.compute(self.scheduler.flops_time(flops))

    # ------------------------------------------------------------------
    # collectives (delegated to repro.mpi.collectives)
    # ------------------------------------------------------------------
    def _next_coll_tag(self, name: str):
        self._coll_seq += 1
        return ("coll", self._coll_seq, name)

    def barrier(self):
        yield from _coll.barrier(self)

    def bcast(self, size: int, data: Any = None, root: int = 0):
        result = yield from _coll.bcast(self, size, data, root)
        return result

    def reduce(self, size: int, value: Any = None, root: int = 0, op=None):
        result = yield from _coll.reduce(self, size, value, root, op)
        return result

    def allreduce(self, size: int, value: Any = None, op=None):
        result = yield from _coll.allreduce(self, size, value, op)
        return result

    def gather(self, size: int, value: Any = None, root: int = 0):
        result = yield from _coll.gather(self, size, value, root)
        return result

    def scatter(self, size: int, values: Optional[list] = None, root: int = 0):
        result = yield from _coll.scatter(self, size, values, root)
        return result

    def allgather(self, size: int, value: Any = None):
        result = yield from _coll.allgather(self, size, value)
        return result

    def alltoall(self, size: int, values: Optional[list] = None):
        result = yield from _coll.alltoall(self, size, values)
        return result

    def scan(self, size: int, value: Any = None, op=None):
        result = yield from _coll.scan(self, size, value, op)
        return result

    # ------------------------------------------------------------------
    # self-messaging (rank -> same rank)
    # ------------------------------------------------------------------
    def _self_send(self, tag: Any, size: int, data: Any) -> MPIRequest:
        req = MPIRequest(self.sim, "send", self.rank, tag, size, data)
        for i, rreq in enumerate(self._self_waiting):
            if rreq.tag is ANY_TAG or rreq.tag == tag:
                del self._self_waiting[i]
                rreq._finish(self.sim, data=data, size=size,
                             source=self.rank, tag=tag)
                break
        else:
            self._self_pending.append((tag, size, data))
        req._finish(self.sim)
        return req

    def _self_recv(self, tag: Any,
                   wildcard: bool = False) -> Optional[MPIRequest]:
        """Take the oldest pending self-message matching ``tag``; with
        none, queue the receive, or return None if ``wildcard``."""
        for i, (t, size, data) in enumerate(self._self_pending):
            if tag is ANY_TAG or t == tag:
                del self._self_pending[i]
                req = MPIRequest(self.sim, "recv", self.rank, tag)
                req._finish(self.sim, data=data, size=size,
                            source=self.rank, tag=t)
                return req
        if wildcard:
            return None
        req = MPIRequest(self.sim, "recv", self.rank, tag)
        self._self_waiting.append(req)
        return req

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Communicator(rank={self.rank}, size={self.size})"

