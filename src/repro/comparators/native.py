"""A parameterized native MPI stack (the comparator skeleton)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.hardware.nic import NIC, Frame
from repro.mpich2.queues import Envelope, PostedQueue, UnexpectedQueue
from repro.mpich2.request import MPIRequest
from repro.mpich2.stackbase import BaseStack

_rid_ctr = itertools.count()


@dataclass(frozen=True)
class NativeCosts:
    """Externally observable cost profile of a native MPI implementation."""

    #: software send path, s
    send_overhead: float = 0.18e-6
    #: software receive-post path, s
    recv_overhead: float = 0.17e-6
    #: receive-side matching + completion per message, s
    match_cost: float = 0.10e-6
    #: eager/rendezvous switch, bytes
    eager_threshold: int = 12 * 1024
    #: control-message wire size, bytes
    ctrl_size: int = 32
    #: large messages move in pipelined chunks of this size, bytes
    pipeline_chunk: int = 1 << 20
    #: host cost between successive pipeline chunks, s
    per_chunk_cost: float = 1.5e-6
    #: protocol efficiency applied to wire bandwidth (credits, headers)
    bw_derate: float = 1.0
    #: one-way intra-node small-message latency, s
    shm_latency: float = 0.30e-6
    #: intra-node large-message bandwidth, B/s
    shm_bandwidth: float = 2.5e9
    #: compute-efficiency factor applied by the runtime to compute phases
    compute_efficiency: float = 1.0
    #: eager sends at or below this size go out during the isend call;
    #: larger eager payloads need library progress (Fig. 7a no-overlap)
    inline_pump_threshold: int = 1024


@dataclass
class NativeMsg:
    """Wire payload of the native stack's protocol."""

    kind: str            # "eager" | "rts" | "cts" | "data"
    src_rank: int
    dst_rank: int
    tag: Any = None
    size: int = 0
    data: Any = None
    rid: int = 0
    last: bool = False

    @property
    def entries(self):   # uniform routing interface with PacketWrapper
        return [self]


@dataclass
class _RdvSendState:
    req: MPIRequest
    remaining: int
    offset: int = 0


@dataclass
class _RdvRecvState:
    req: MPIRequest
    remaining: int
    total: int = 0
    tag: Any = None
    src: int = 0
    data: Any = None


class NativeStack(BaseStack):
    """One process of a comparator MPI implementation."""

    def __init__(self, sim, rank: int, node, scheduler, nic: Optional[NIC],
                 rank_to_node, costs: NativeCosts = NativeCosts(),
                 registrar=None, pioman=None):
        super().__init__(sim, rank, node, scheduler, pioman=pioman)
        self.nic = nic
        self.rank_to_node = rank_to_node
        self.costs = costs
        # native stacks keep a pin-down registration cache (Liu et al.)
        self.registrar = registrar or node.make_registrar(cache=True)
        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()
        self._rdv_send: Dict[int, _RdvSendState] = {}
        self._rdv_recv: Dict[int, _RdvRecvState] = {}
        self._pending_tx: list = []
        #: same-node peer stacks, filled by the runtime
        self.local_peers: Dict[int, "NativeStack"] = {}

    # ------------------------------------------------------------------
    # MPI entry points
    # ------------------------------------------------------------------
    def isend(self, dst: int, tag: Any, size: int, data: Any = None,
              sync: bool = False):
        if dst == self.rank:
            raise ValueError("self-sends must be handled above the device layer")
        req = MPIRequest(self.sim, "send", dst, tag, size, data)
        req._sync = sync
        self.messages_sent += 1
        self.bytes_sent += size
        if self.rank_to_node(dst) == self.node.node_id:
            yield from self._send_shm(req)
        elif size <= self.costs.eager_threshold and not sync:
            yield from self._send_eager(req)
        else:
            yield from self._send_rts(req)
        return req

    def irecv(self, src: Any, tag: Any):
        req = MPIRequest(self.sim, "recv", src, tag)
        yield from self.cpu(self.costs.recv_overhead)
        env = self.unexpected.match(src, tag)
        if env is not None:
            yield from self._deliver_env(req, env)
        else:
            self.posted.post(req)
        return req

    # ------------------------------------------------------------------
    # send paths
    # ------------------------------------------------------------------
    def _wire(self, size: int) -> int:
        """Bytes on the wire after protocol derating."""
        return int(size / self.costs.bw_derate)

    def _post_frame(self, msg: NativeMsg, wire_size: int):
        frame = Frame(src=self.node.node_id, dst=self.rank_to_node(msg.dst_rank),
                      size=wire_size, kind="native", payload=msg)
        return self.nic.post_send(frame)

    def _send_eager(self, req: MPIRequest):
        yield from self.cpu(self.costs.send_overhead)
        # copy into a pre-registered bounce buffer
        yield from self.cpu(self.node.mem.copy_time(req.size))
        msg = NativeMsg("eager", self.rank, req.peer, tag=req.tag,
                        size=req.size, data=req.data)
        wire = self._wire(req.size) + self.costs.ctrl_size
        if req.size <= self.costs.inline_pump_threshold:
            evt = self._post_frame(msg, wire)
            evt.add_done_callback(lambda _e: req._finish(self.sim))
        else:
            # fragments beyond the first need progress calls to move
            self._pending_tx.append((msg, wire, req))

    def _send_rts(self, req: MPIRequest):
        yield from self.cpu(self.costs.send_overhead)
        rid = next(_rid_ctr)
        self._rdv_send[rid] = _RdvSendState(req, remaining=req.size)
        msg = NativeMsg("rts", self.rank, req.peer, tag=req.tag,
                        size=req.size, rid=rid)
        self._post_frame(msg, self.costs.ctrl_size)

    def _pump_rdv_data(self, rid: int) -> None:
        """Send the next pipeline chunk (callback context)."""
        state = self._rdv_send.get(rid)
        if state is None:
            return
        chunk = min(self.costs.pipeline_chunk, state.remaining)
        state.remaining -= chunk
        last = state.remaining == 0
        msg = NativeMsg("data", self.rank, state.req.peer, rid=rid,
                        size=chunk, data=state.req.data if last else None,
                        last=last)
        evt = self._post_frame(msg, self._wire(chunk))
        if last:
            del self._rdv_send[rid]
            evt.add_done_callback(lambda _e: state.req._finish(self.sim))
        else:
            # host-side gap between pipeline chunks
            evt.add_done_callback(
                lambda _e: self.sim.schedule(
                    self.costs.per_chunk_cost, self._pump_rdv_data, rid))

    # ------------------------------------------------------------------
    # shared-memory path
    # ------------------------------------------------------------------
    def _send_shm(self, req: MPIRequest):
        c = self.costs
        yield from self.cpu(0.5 * c.shm_latency + 0.5 * req.size / c.shm_bandwidth)
        env = Envelope(src=self.rank, tag=req.tag, size=req.size, data=req.data,
                       proto="shm")
        peer = self.local_peers[req.peer]
        if getattr(req, "_sync", False):
            env.sync_req = req
            self.sim.schedule(0.0, peer.deliver, ("shm", env))
        else:
            self.sim.schedule(0.0, peer.deliver, ("shm", env))
            req._finish(self.sim)

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def _flush_tx(self) -> None:
        """Library progress: push out deferred eager frames."""
        while self._pending_tx:
            msg, wire, req = self._pending_tx.pop(0)
            evt = self._post_frame(msg, wire)
            evt.add_done_callback(
                lambda _e, r=req: r._finish(self.sim) if not r.complete else None)

    def _progress_hook(self) -> None:
        self._flush_tx()

    def _handle_item(self, item):
        kind, payload = item
        if kind == "net":
            yield from self._handle_msg(payload.payload)
        elif kind == "shm":
            yield from self._handle_shm_env(payload)
        else:
            raise RuntimeError(f"unknown progress item {kind!r}")

    def _handle_msg(self, msg: NativeMsg):
        if msg.kind == "eager":
            yield from self.cpu(self.costs.match_cost)
            req = self.posted.match(msg.src_rank, msg.tag)
            env = Envelope(src=msg.src_rank, tag=msg.tag, size=msg.size,
                           data=msg.data, proto="eager")
            if req is None:
                self.unexpected.add(env)
            else:
                yield from self._deliver_env(req, env)
        elif msg.kind == "rts":
            yield from self.cpu(self.costs.match_cost)
            req = self.posted.match(msg.src_rank, msg.tag)
            env = Envelope(src=msg.src_rank, tag=msg.tag, size=msg.size,
                           proto=("rts", msg.rid))
            if req is None:
                self.unexpected.add(env)
            else:
                yield from self._grant(req, env)
        elif msg.kind == "cts":
            state = self._rdv_send.get(msg.rid)
            if state is None:
                raise RuntimeError(f"CTS for unknown rendezvous {msg.rid}")
            # the cache key models buffer reuse (Netpipe reuses its buffer)
            yield from self.cpu(
                self.registrar.cost(("tx", state.req.peer, state.req.size),
                                    state.req.size))
            # pipeline startup: the host gap precedes every chunk
            yield from self.cpu(self.costs.per_chunk_cost)
            self._pump_rdv_data(msg.rid)
        elif msg.kind == "data":
            state = self._rdv_recv.get(msg.rid)
            if state is None:
                raise RuntimeError(f"data for unknown rendezvous {msg.rid}")
            if msg.data is not None:
                state.data = msg.data
            state.remaining -= msg.size
            if state.remaining <= 0:
                del self._rdv_recv[msg.rid]
                yield from self.cpu(self.costs.match_cost)
                state.req._finish(self.sim, data=state.data, size=state.total,
                                  source=state.src, tag=state.tag)
        else:
            raise RuntimeError(f"unknown native message {msg.kind!r}")

    def _handle_shm_env(self, env: Envelope):
        yield from self.cpu(0.5 * self.costs.shm_latency
                            + 0.5 * env.size / self.costs.shm_bandwidth)
        req = self.posted.match(env.src, env.tag)
        if req is None:
            self.unexpected.add(env)
        else:
            if env.sync_req is not None and not env.sync_req.complete:
                env.sync_req._finish(self.sim)
            req._finish(self.sim, data=env.data, size=env.size,
                        source=env.src, tag=env.tag)

    def _deliver_env(self, req: MPIRequest, env: Envelope):
        if env.proto == "shm":
            yield from self.cpu(0.5 * self.costs.shm_latency
                                + 0.5 * env.size / self.costs.shm_bandwidth)
            if env.sync_req is not None and not env.sync_req.complete:
                env.sync_req._finish(self.sim)
            req._finish(self.sim, data=env.data, size=env.size,
                        source=env.src, tag=env.tag)
        elif env.proto == "eager":
            yield from self.cpu(self.node.mem.copy_time(env.size))
            req._finish(self.sim, data=env.data, size=env.size,
                        source=env.src, tag=env.tag)
        elif isinstance(env.proto, tuple) and env.proto[0] == "rts":
            yield from self._grant(req, env)
        else:
            raise RuntimeError(f"bad envelope protocol {env.proto!r}")

    def _grant(self, req: MPIRequest, env: Envelope):
        """Receiver grants a rendezvous: register, track, send CTS."""
        rid = env.proto[1] if isinstance(env.proto, tuple) else env.proto
        yield from self.cpu(self.registrar.cost(("rx", env.src, env.size),
                                                env.size))
        self._rdv_recv[rid] = _RdvRecvState(req, remaining=env.size,
                                            total=env.size,
                                            tag=env.tag, src=env.src)
        msg = NativeMsg("cts", self.rank, env.src, rid=rid)
        self._post_frame(msg, self.costs.ctrl_size)
