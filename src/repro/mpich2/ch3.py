"""The CH3 device with the NewMadeleine network integration.

Supports the two inter-node configurations the paper contrasts:

* ``mode="direct"`` — Section 3.1: CH3's send functions are overridden
  per destination (virtual connections) to call NewMadeleine directly;
  NewMadeleine performs tag matching and its internal eager/rendezvous
  protocol; ANY_SOURCE uses the request lists of Fig. 3.
* ``mode="netmod"`` — Section 2.1.2/2.1.3: every CH3 message traverses
  the Nemesis network-module interface, paying queue-cell copies, and
  large messages run CH3's own RTS/CTS *around* NewMadeleine's internal
  rendezvous (the nested handshake of Fig. 2).

Intra-node traffic always uses the Nemesis shared-memory queues.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.mpich2.anysource import AnySourceBook
from repro.mpich2.nemesis.shm import NemesisShm, ShmMessage
from repro.mpich2.queues import ContextAnyTag, Envelope, PostedQueue, UnexpectedQueue
from repro.mpich2.request import ANY_SOURCE, ANY_TAG, MPIRequest
from repro.mpich2.stackbase import BaseStack
from repro.mpich2.nemesis.netmod import NewmadNetmod
from repro.mpich2.vc import VirtualConnection
from repro.nmad.core import ANY as NM_ANY, NmadCore


@dataclass(frozen=True)
class CH3Costs:
    """CH3/ADI3-layer software constants.

    Calibration: the MPICH2 layers add ~300 ns over raw NewMadeleine
    (2.1 us vs 1.8 us, Fig. 4a); ANY_SOURCE adds a constant ~300 ns.
    """

    #: CH3 send path over the network, s
    send_overhead: float = 0.15e-6
    #: CH3 receive-post path over the network, s
    recv_overhead: float = 0.15e-6
    #: Nemesis fast-path overheads (intra-node), s
    shm_send_overhead: float = 0.03e-6
    shm_recv_overhead: float = 0.03e-6
    #: ANY_SOURCE bookkeeping: at post and at resolution, s (Fig. 4a "w/AS")
    anysource_post: float = 0.15e-6
    anysource_complete: float = 0.15e-6
    #: CH3's own rendezvous threshold on the netmod path, bytes
    ch3_eager_threshold: int = 64 * 1024
    #: wire size of CH3 control packets (RTS/CTS), bytes
    ctrl_size: int = 48
    #: CH3 request-completion work on the receive handler path, s
    #: (wired into NewMadeleine's upper_complete_cost by the runtime)
    complete_overhead: float = 0.15e-6
    #: eager sends at or below this size are injected during the isend
    #: call itself (first-fragment inline); larger eager payloads need
    #: library progress to move — the no-overlap behaviour of Fig. 7a
    inline_pump_threshold: int = 1024


class CH3Stack(BaseStack):
    """One MPI process's MPICH2(-NewMadeleine) stack."""

    def __init__(
        self,
        sim,
        rank: int,
        node,
        scheduler,
        core: NmadCore,
        shm: Optional[NemesisShm],
        mode: str = "direct",
        pioman=None,
        costs: CH3Costs = CH3Costs(),
    ):
        super().__init__(sim, rank, node, scheduler, pioman=pioman)
        if mode not in ("direct", "netmod"):
            raise ValueError(f"unknown CH3 mode {mode!r}")
        self.mode = mode
        self.core = core
        self.shm = shm
        self.costs = costs
        self.posted = PostedQueue()
        self.unexpected = UnexpectedQueue()
        self.book = AnySourceBook(self)
        # race-detector names for the shared CH3 state, plus the region
        # labels of the legitimate synchronized entry points
        self._rv_posted = f"mpich2.posted@r{rank}"
        self._rv_unexpected = f"mpich2.unexpected@r{rank}"
        self._rv_ch3rdv = f"mpich2.ch3rdv@r{rank}"
        self._lbl_isend = f"mpich2.isend@r{rank}"
        self._lbl_irecv = f"mpich2.irecv@r{rank}"
        self._lbl_probe = f"mpich2.probe@r{rank}"
        self.vcs: Dict[int, VirtualConnection] = {}
        self._ch3_rdv_ctr = itertools.count()
        self._ch3_rdv_send: Dict[int, MPIRequest] = {}
        # the progress engine's per-message sync halves (Fig. 6): the
        # reference engine charges half the overhead per side,
        # manual_poll has no shared state -> 0
        self._sync_net = self._sync_shm = 0.0
        if pioman is not None:
            self._sync_net = pioman.sync_cost(False)
            self._sync_shm = pioman.sync_cost(True)
        self.netmod = None
        if mode == "netmod":
            self.netmod = NewmadNetmod(core)
            self.netmod.net_module_init()
            self.netmod.on_packet = self._handle_ch3_packet
            self.netmod.on_deferred_packet = (
                lambda nm: self.deliver(("ch3pkt", nm)))
        if shm is not None:
            shm.register(rank, self._on_shm_message)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def setup_vcs(self, n_ranks: int, rank_to_node) -> None:
        """Build virtual connections with per-destination send overrides."""
        my_node = self.node.node_id
        for peer in range(n_ranks):
            if peer == self.rank:
                continue
            vc = VirtualConnection(peer, rank_to_node(peer), my_node)
            if vc.is_local:
                vc.send_fn = self._send_shm
            elif self.mode == "direct":
                vc.send_fn = self._send_direct
            else:
                vc.send_fn = self._send_netmod
            # repro-check: allow[RPC004] build-time wiring, sim not running
            self.vcs[peer] = vc

    # ------------------------------------------------------------------
    # MPI entry points (generators run on the application thread)
    # ------------------------------------------------------------------
    def isend(self, dst: int, tag: Any, size: int, data: Any = None,
              sync: bool = False):
        """MPID_Send/Isend equivalent; returns the :class:`MPIRequest`.

        ``sync=True`` gives MPI_Ssend semantics: the request completes
        only once the matching receive has started.
        """
        if dst == self.rank:
            raise ValueError("self-sends must be handled above the device layer")
        req = MPIRequest(self.sim, "send", dst, tag, size, data)
        req._sync = sync
        self.messages_sent += 1
        self.bytes_sent += size
        vc = self.vcs[dst]
        if self.sim.tracing:
            self.sim.record(
                "mpich2.send", src=self.rank, dst=dst, tag=tag, size=size,
                path="shm" if vc.is_local else self.mode, sync=sync,
            )
        with self.sim.sync_region(self._region, self._lbl_isend):
            yield from vc.send_fn(req)
        return req

    def irecv(self, src: Any, tag: Any):
        """MPID_Recv/Irecv equivalent; returns the :class:`MPIRequest`."""
        req = MPIRequest(self.sim, "recv", src, tag)
        if self.sim.tracing:
            self.sim.record(
                "mpich2.recv_post", rank=self.rank,
                src="ANY" if src is ANY_SOURCE else src, tag=tag,
            )
        if ((tag is ANY_TAG or isinstance(tag, ContextAnyTag))
                and self.mode == "direct"):
            vc = None if src is ANY_SOURCE else self.vcs[src]
            if vc is None or not vc.is_local:
                raise NotImplementedError(
                    "MPI_ANY_TAG on the CH3-direct network path is not "
                    "supported: NewMadeleine matches on exact tags")
        if src is ANY_SOURCE:
            with self.sim.sync_region(self._region, self._lbl_irecv):
                yield from self._post_any_source(req)
            return req
        vc = self.vcs[src]
        if vc.is_local or self.mode == "netmod":
            overhead = (self.costs.shm_recv_overhead if vc.is_local
                        else self.costs.recv_overhead)
            if overhead > 0.0:
                yield overhead
            with self.sim.sync_region(self._region, self._lbl_irecv):
                self.sim.race_write(self._rv_unexpected)
                env = self.unexpected.match(src, tag)
                if env is not None:
                    yield from self._deliver_env(req, env)
                else:
                    self.sim.race_write(self._rv_posted)
                    self.posted.post(req)
        else:
            if self.costs.recv_overhead > 0.0:
                yield self.costs.recv_overhead
            with self.sim.sync_region(self._region, self._lbl_irecv):
                if self.book.has_pending(tag):
                    # preserve matching order behind pending ANY_SOURCE
                    self.book.defer_regular(tag, req)
                else:
                    yield from self._post_remote_recv(req)
        return req

    # ------------------------------------------------------------------
    # send paths (selected through the virtual connection)
    # ------------------------------------------------------------------
    def _send_shm(self, req: MPIRequest):
        overhead = self.costs.shm_send_overhead + self._sync_shm
        if overhead > 0.0:
            yield overhead
        env = Envelope(src=self.rank, tag=req.tag, size=req.size, data=req.data,
                       arrival=self.sim.now)
        if req._sync:
            env.sync_req = req        # completes when the receiver matches
            yield from self.shm.send(self.rank, req.peer, env, req.size)
        else:
            yield from self.shm.send(self.rank, req.peer, env, req.size)
            # the send buffer is free once copied into the queue cells
            req._finish(self.sim)

    def _send_direct(self, req: MPIRequest):
        overhead = self.costs.send_overhead + self._sync_net
        if overhead > 0.0:
            yield overhead
        nm = yield from self.core.isend(req.peer, ("mpi", req.tag),
                                        req.size, req.data,
                                        sync=req._sync)
        req.nmad_req = nm
        if nm.complete:
            req._finish(self.sim)
        else:
            nm.on_complete = lambda _n: req._finish(self.sim)
        self._offload_pump(req.size)

    def _send_netmod(self, req: MPIRequest):
        overhead = self.costs.send_overhead + self._sync_net
        if overhead > 0.0:
            yield overhead
        if req.size <= self.costs.ch3_eager_threshold and not req._sync:
            # CH3 eager: copy into a Nemesis queue cell (paper 2.1.3),
            # then ship the cell through the network module.
            copy = self.node.mem.copy_time(req.size)
            if self.sim.tracing:
                self.sim.record("mpich2.cell_copy", rank=self.rank, dir="in",
                                size=req.size, dur=copy)
                self.sim.record("mpich2.netmod_handoff", rank=self.rank,
                                dir="tx", kind="eager", dst=req.peer,
                                size=req.size)
            if copy > 0.0:
                yield copy
            env = Envelope(src=self.rank, tag=req.tag, size=req.size, data=req.data)
            nm = yield from self.netmod.net_module_send(
                req.peer, req.size + self.costs.ctrl_size, ("eager", env, 0))
            req.nmad_req = nm
            if nm.complete:
                req._finish(self.sim)
            else:
                nm.on_complete = lambda _n: req._finish(self.sim)
        else:
            # CH3 rendezvous: RTS/CTS handshake at the CH3 level; the
            # data message below will trigger NewMadeleine's *own*
            # rendezvous — the nested handshake of Fig. 2.
            rid = next(self._ch3_rdv_ctr)
            self.sim.race_write(self._rv_ch3rdv)
            self._ch3_rdv_send[rid] = req
            env = Envelope(src=self.rank, tag=req.tag, size=req.size)
            if self.sim.tracing:
                self.sim.record("mpich2.netmod_handoff", rank=self.rank,
                                dir="tx", kind="rts", dst=req.peer,
                                size=req.size)
            yield from self.netmod.net_module_send(
                req.peer, self.costs.ctrl_size, ("rts", env, rid))
            self._offload_pump(self.costs.ctrl_size)
            return
        self._offload_pump(req.size)

    # ------------------------------------------------------------------
    # receive helpers
    # ------------------------------------------------------------------
    def _post_remote_recv(self, req: MPIRequest):
        """Hand a known-source remote receive to NewMadeleine."""
        nm = yield from self.core.irecv(req.peer, ("mpi", req.tag))
        req.nmad_req = nm
        src = req.peer
        if nm.complete:
            req._finish(self.sim, data=nm.data, size=nm.size, source=src, tag=req.tag)
        else:
            nm.on_complete = lambda n: req._finish(
                self.sim, data=n.data, size=n.size, source=src, tag=req.tag)

    def _post_any_source(self, req: MPIRequest):
        if self.mode == "netmod":
            # the central CH3 queues match wildcards natively
            if self.costs.recv_overhead > 0.0:
                yield self.costs.recv_overhead
            self.sim.race_write(self._rv_unexpected)
            env = self.unexpected.match(ANY_SOURCE, req.tag)
            if env is not None:
                yield from self._deliver_env(req, env)
            else:
                self.sim.race_write(self._rv_posted)
                self.posted.post(req)
            return
        overhead = (self.costs.recv_overhead + self.costs.anysource_post
                    + self._sync_net)
        if overhead > 0.0:
            yield overhead
        self.sim.race_write(self._rv_unexpected)
        env = self.unexpected.match(ANY_SOURCE, req.tag)
        if env is not None:  # an intra-node message was already waiting
            yield from self._deliver_env(req, env)
            return
        self.sim.race_write(self._rv_posted)
        self.posted.post(req)            # visible to shared-memory matching
        self.book.add_any_source(req.tag, req)
        yield from self.book.poll_tag(req.tag)  # may already sit in nmad buffers

    def _resolve_any_source(self, req: MPIRequest, src: int):
        """Probe hit: create the NewMadeleine request a posteriori."""
        if self.costs.anysource_complete > 0.0:
            yield self.costs.anysource_complete
        self.sim.race_write(self._rv_posted)
        self.posted.remove(req)
        nm = yield from self.core.irecv(src, ("mpi", req.tag))
        req.nmad_req = nm
        tag = req.tag
        if nm.complete:
            req._finish(self.sim, data=nm.data, size=nm.size, source=src, tag=tag)
        else:  # a large message: completes when the rendezvous data lands
            nm.on_complete = lambda n: req._finish(
                self.sim, data=n.data, size=n.size, source=src, tag=tag)

    def _deliver_env(self, req: MPIRequest, env: Envelope):
        """Complete a receive from a matched envelope (shm or netmod)."""
        if env.proto is None:
            if self.shm is not None and env.arrival:
                copy = self.shm.recv_cost(env.size)
                if self.sim.tracing:
                    self.sim.record("mpich2.shm_recv", rank=self.rank,
                                    src=env.src, size=env.size, dur=copy)
            else:
                copy = self.node.mem.copy_time(env.size)
            if copy > 0.0:
                yield copy
            if env.sync_req is not None and not env.sync_req.complete:
                env.sync_req._finish(self.sim)   # Ssend: matched now
            req._finish(self.sim, data=env.data, size=env.size,
                        source=env.src, tag=env.tag)
        else:
            kind, src, rid = env.proto
            if kind != "rts":
                raise RuntimeError(f"unexpected envelope protocol {env.proto!r}")
            yield from self._ch3_grant(req, src, rid, env)

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe_unexpected(self, src, tag):
        with self.sim.sync_region(self._region, self._lbl_probe):
            self.sim.race_read(self._rv_unexpected)
            env = self.unexpected.peek(src, tag)
            if env is not None:
                return (env.src, env.size)
            if self.mode == "direct":
                nm_src = NM_ANY if src is ANY_SOURCE else src
                hit = self.core.probe(("mpi", tag), src=nm_src)
                if hit is not None:
                    return hit
            return None

    # ------------------------------------------------------------------
    # progress: incoming items
    # ------------------------------------------------------------------
    def _handle_item(self, item):
        kind, payload = item
        if kind == "net":
            if self._sync_net > 0.0:
                yield self._sync_net
            if self.mode == "netmod":
                # the Nemesis progress engine calls the module's poll
                yield from self.netmod.net_module_poll(payload)
            else:
                yield from self.core.handle_pw(payload.payload, payload.rail)
        elif kind == "shm":
            if self._sync_shm > 0.0:
                yield self._sync_shm
            yield from self._handle_shm(payload)
        elif kind == "ch3pkt":
            yield from self._handle_ch3_packet(payload)
        else:
            raise RuntimeError(f"unknown progress item {kind!r}")

    def _progress_hook(self):
        # submit whatever accumulated in the strategy while computing
        self.core.strategy.pump()
        if self.mode == "direct" and self.book._lists:
            yield from self.book.poll()

    def _offload_pump(self, size: int = 0) -> None:
        """With PIOMan, submission is offloaded to an idle core (paper
        Section 2.2.3).  Without it, small messages and rendezvous RTS
        control still go out during the call (first-fragment inline),
        but medium eager payloads sit in the strategy until the
        application re-enters the library — Fig. 7a."""
        if self.pioman is not None:
            self.pioman.submit(self._pump_ltask, rank=self.rank)
        elif (size <= self.costs.inline_pump_threshold
              or size > self.core.costs.eager_threshold):
            self.core.strategy.pump()

    def _pump_ltask(self):
        self.core.strategy.pump()
        yield 0.0

    def _on_shm_message(self, msg: ShmMessage) -> None:
        self.deliver(("shm", msg))

    def _handle_shm(self, msg: ShmMessage):
        env = msg.env
        if msg.cells is not None:
            # the receiver's poll copies the message out of the queue
            # cells, which then return to the sender's free queue
            msg.cells.release()
        self.sim.race_write(self._rv_posted)
        req = self.posted.match(env.src, env.tag)
        if req is None:
            self.sim.race_write(self._rv_unexpected)
            self.unexpected.add(env)
            return
        if req.peer is ANY_SOURCE and self.mode == "direct":
            # Fig. 3: an intra-node match removes the pending-AS entry
            yield from self.book.on_local_match(req.tag, req)
        yield from self._deliver_env(req, env)

    # ------------------------------------------------------------------
    # netmod path: CH3 packets delivered by the network module
    # ------------------------------------------------------------------
    def _handle_ch3_packet(self, nm):
        kind, env, rid = nm.data
        if self.sim.tracing:
            self.sim.record("mpich2.netmod_handoff", rank=self.rank,
                            dir="rx", kind=kind,
                            size=env.size if env is not None else 0)
        if kind == "eager":
            # copy out of the queue cell, then CH3 matching
            copy = self.node.mem.copy_time(env.size)
            if self.sim.tracing:
                self.sim.record("mpich2.cell_copy", rank=self.rank, dir="out",
                                size=env.size, dur=copy)
            if copy > 0.0:
                yield copy
            self.sim.race_write(self._rv_posted)
            req = self.posted.match(env.src, env.tag)
            if req is None:
                self.sim.race_write(self._rv_unexpected)
                self.unexpected.add(env)
            else:
                req._finish(self.sim, data=env.data, size=env.size,
                            source=env.src, tag=env.tag)
        elif kind == "rts":
            self.sim.race_write(self._rv_posted)
            req = self.posted.match(env.src, env.tag)
            if req is None:
                env.proto = ("rts", env.src, rid)
                self.sim.race_write(self._rv_unexpected)
                self.unexpected.add(env)
            else:
                yield from self._ch3_grant(req, env.src, rid, env)
        elif kind == "cts":
            self.sim.race_write(self._rv_ch3rdv)
            sreq = self._ch3_rdv_send.pop(rid)
            # the data message goes through plain nmad send; being larger
            # than nmad's eager threshold it triggers nmad's *own*
            # rendezvous underneath CH3's — the nested handshake (Fig. 2)
            nm2 = yield from self.core.isend(
                sreq.peer, ("ch3data", rid), sreq.size, sreq.data)
            sreq.nmad_req = nm2
            if nm2.complete:
                sreq._finish(self.sim)
            else:
                nm2.on_complete = lambda _n: sreq._finish(self.sim)
        else:
            raise RuntimeError(f"unknown CH3 packet kind {kind!r}")

    def _ch3_grant(self, req: MPIRequest, src: int, rid: int, env: Envelope):
        """Receiver side of the CH3 rendezvous: post data recv, send CTS."""
        nmr = yield from self.core.irecv(src, ("ch3data", rid))
        req.nmad_req = nmr
        tag, size = env.tag, env.size
        nmr.on_complete = lambda n: req._finish(
            self.sim, data=n.data, size=size, source=src, tag=tag)
        if self.sim.tracing:
            self.sim.record("mpich2.netmod_handoff", rank=self.rank,
                            dir="tx", kind="cts", dst=src, size=size)
        yield from self.netmod.net_module_send(src, self.costs.ctrl_size,
                                               ("cts", None, rid))
