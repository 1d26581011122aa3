"""The NewMadeleine core: request submission, matching, protocols.

One :class:`NmadCore` exists per MPI process.  It owns:

* the *strategy* holding pending send items (optimization window);
* one *driver* per rail (submission windows over shared node NICs);
* the receive side: posted-request list, unexpected list, and the
  internal eager / rendezvous protocol state.

CPU-cost convention: methods that run on some thread's CPU are
generators yielding CPU delays; the caller decides *which*
thread's time that is (application thread for submissions, progress
context for frame handling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hardware.memory import MemoryRegistrar
from repro.hardware.params import MemParams
from repro.nmad.drivers.base import NmadDriver
from repro.nmad.packet import (
    CtsEntry,
    DataEntry,
    EagerEntry,
    PacketWrapper,
    RtsEntry,
    next_rdv_id,
)
from repro.nmad.request import NmadRequest
from repro.nmad.strategies.base import SendItem
from repro.nmad.strategies.sampling import NetworkSampler
from repro.simulator import Simulator


class _AnySentinel:
    def __repr__(self):
        return "<ANY>"


#: wildcard for probe()'s source argument
ANY = _AnySentinel()


class ProtocolError(RuntimeError):
    """Raised when message-ordering or protocol invariants are violated."""


@dataclass(frozen=True)
class NmadCosts:
    """Software-path cost constants of the NewMadeleine library.

    Calibration: raw NewMadeleine latency is 1.8 us over the 1.15 us IB
    hardware path (paper Section 4.1.1), i.e. ~0.65 us of library
    software split across the send and receive paths.
    """

    #: nm_sr_isend software path (request alloc, strategy enqueue), s
    send_post: float = 0.35e-6
    #: nm_sr_irecv software path, s
    recv_post: float = 0.15e-6
    #: receive-side matching + completion handling per message, s
    match_cost: float = 0.42e-6
    #: processing an RTS or CTS control entry, s
    rdv_handshake_cost: float = 0.20e-6
    #: receive-side handling of one rendezvous chunk (non-RDMA rails), s
    data_chunk_cost: float = 0.05e-6
    #: eager/rendezvous protocol switch point, bytes
    eager_threshold: int = 16 * 1024
    #: aggregation limit: max packet-wrapper wire size, bytes
    max_pw_size: int = 32 * 1024
    #: minimum rendezvous payload that gets striped across rails, bytes
    split_threshold: int = 128 * 1024
    #: upper-layer (CH3) request-completion work charged in the receive
    #: handler; 0 when NewMadeleine runs standalone (raw 1.8 us vs the
    #: integrated 2.1 us of Fig. 4a)
    upper_complete_cost: float = 0.0


@dataclass
class _RdvSend:
    req: NmadRequest
    remaining_inject: int
    cts_seen: bool = False


@dataclass
class _RdvRecv:
    req: NmadRequest
    remaining: int
    data: Any = None


@dataclass
class _Unexpected:
    """An arrived message with no matching posted request yet."""

    kind: str          # "eager" | "rts"
    src_rank: int
    tag: Any
    seq: int
    size: int
    data: Any = None
    rdv_id: int = 0
    arrival: float = 0.0


class NmadCore:
    """Per-process NewMadeleine instance."""

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        node_id: int,
        mem: MemParams,
        registrar: MemoryRegistrar,
        costs: NmadCosts = NmadCosts(),
        sampler: Optional[NetworkSampler] = None,
        rank_to_node: Optional[Callable[[int], int]] = None,
    ):
        self.sim = sim
        self.rank = rank
        self.node_id = node_id
        self.mem = mem
        self.registrar = registrar
        self.costs = costs
        self.sampler = sampler or NetworkSampler()
        self.rank_to_node = rank_to_node or (lambda r: r)
        #: pin-down registration cache, adopted from the IB rail (None =
        #: the paper's on-the-fly registration)
        self.reg_cache = None

        self.drivers: List[NmadDriver] = []
        self._preferred: List[NmadDriver] = []
        self.strategy = None  # set via set_strategy()

        # receive side
        self.posted: List[NmadRequest] = []
        self.unexpected: List[_Unexpected] = []

        # protocol state
        self._rdv_send: Dict[int, _RdvSend] = {}
        self._rdv_recv: Dict[int, _RdvRecv] = {}
        self._send_seq: Dict[Tuple[int, Any], int] = {}
        self._recv_seq: Dict[Tuple[int, Any], int] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_driver(self, driver: NmadDriver) -> None:
        driver.on_injected = self._on_pw_injected
        self.drivers.append(driver)
        if driver.reg_cache is not None:
            self.reg_cache = driver.reg_cache
        self._preferred = self.sampler.ordered(self.drivers)

    def set_strategy(self, strategy) -> None:
        self.strategy = strategy

    def preferred_drivers(self) -> List[NmadDriver]:
        """Drivers in ascending small-message-latency order."""
        return self._preferred

    def fastest_driver(self) -> Optional[NmadDriver]:
        return self._preferred[0] if self._preferred else None

    def driver_for_rail(self, rail: str) -> NmadDriver:
        for d in self.drivers:
            if d.name == rail:
                return d
        raise KeyError(f"no driver for rail {rail!r}")

    # ------------------------------------------------------------------
    # sending (generator: caller charges its CPU)
    # ------------------------------------------------------------------
    def isend(self, dst_rank: int, tag: Any, size: int, data: Any = None,
              sync: bool = False):
        """Submit a send; returns the :class:`NmadRequest`.

        Equivalent of ``nm_sr_isend`` (paper Section 2.2.1).  With
        ``sync=True`` the rendezvous protocol is used regardless of
        size, so completion implies the receive was matched
        (MPI_Ssend semantics).
        """
        req = NmadRequest(self.sim, "send", dst_rank, tag, size, data)
        key = (dst_rank, tag)
        req.seq = self._send_seq.get(key, 0)
        self._send_seq[key] = req.seq + 1

        eager = size <= self.costs.eager_threshold and not sync
        rdv_id = 0 if eager else next_rdv_id()
        if self.sim.tracing:
            self.sim.record(
                "nmad.send_post", src=self.rank, dst=dst_rank, tag=tag,
                seq=req.seq, size=size, proto="eager" if eager else "rdv",
                rdv=rdv_id,
                dur=self.costs.send_post
                + (self.mem.copy_time(size) if eager else 0.0),
            )
        dst_node = self.rank_to_node(dst_rank)
        # Submission is deferred to the next progress point (pump=False):
        # without a progress thread nothing moves while the application
        # computes; PIOMan offloads the pump to an idle core (Fig. 7).
        if eager:
            # eager: data is copied into the packet wrapper now
            yield self.sim.charge(self.costs.send_post,
                                  self.mem.copy_time(size))
            self.strategy.push(SendItem(
                kind="eager", dst_rank=dst_rank, dst_node=dst_node,
                size=size, src_rank=self.rank, tag=tag, seq=req.seq,
                data=data, req=req,
            ), pump=False)
        else:
            yield self.costs.send_post
            state = _RdvSend(req, remaining_inject=size)
            self._rdv_send[rdv_id] = state
            self.strategy.push(SendItem(
                kind="rts", dst_rank=dst_rank, dst_node=dst_node,
                size=size, src_rank=self.rank, tag=tag, seq=req.seq,
                rdv_id=rdv_id, data=data, req=req,
            ), pump=False)
        return req

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def irecv(self, src_rank: int, tag: Any, size: Optional[int] = None):
        """Submit a receive for a *specific* source (nmad has no wildcard).

        Generator; returns the :class:`NmadRequest`.
        """
        if src_rank is ANY:
            raise ProtocolError(
                "NewMadeleine cannot match ANY-source receives; "
                "use probe() + irecv() as the MPICH2 module does (Section 3.2)"
            )
        req = NmadRequest(self.sim, "recv", src_rank, tag, size or 0)
        if self.sim.tracing:
            self.sim.record("nmad.recv_post", rank=self.rank, src=src_rank,
                            tag=tag, dur=self.costs.recv_post)
        yield self.costs.recv_post
        idx = self._find_unexpected(src_rank, tag)
        if idx is None:
            self.posted.append(req)
            return req
        ux = self.unexpected.pop(idx)
        yield from self._consume_unexpected(req, ux)
        return req

    def probe(self, tag: Any, src: Any = ANY) -> Optional[Tuple[int, int]]:
        """First unexpected message matching ``tag`` (and ``src``).

        Returns ``(src_rank, size)`` or None.  This is the "new
        NewMadeleine function" the MPICH2 module polls for ANY_SOURCE
        support (paper Section 3.1.3/3.2.2).
        """
        for ux in self.unexpected:
            if ux.tag == tag and (src is ANY or ux.src_rank == src):
                return (ux.src_rank, ux.size)
        return None

    # ------------------------------------------------------------------
    # frame handling (generator: progress context charges CPU)
    # ------------------------------------------------------------------
    def handle_pw(self, pw: PacketWrapper, rail: str):
        """Process an arrived packet wrapper's entries for this rank."""
        for entry in pw.entries:
            if entry.dst_rank != self.rank:
                continue
            yield from self._HANDLERS[type(entry)](self, entry, rail)

    def handle_entry(self, entry, rail: str):
        """Process one entry (generator); unknown entry types raise."""
        handler = self._HANDLERS.get(type(entry))
        if handler is None:
            raise ProtocolError(f"unknown entry {entry!r}")
        return handler(self, entry, rail)

    # -- eager ------------------------------------------------------------
    def _handle_eager(self, entry: EagerEntry, rail: str):
        yield self.costs.match_cost
        req = self._match_posted(entry.src_rank, entry.tag)
        if req is None:
            if self.sim.tracing:
                self.sim.record(
                    "nmad.unexpected", kind="eager", src=entry.src_rank,
                    dst=self.rank, tag=entry.tag, seq=entry.seq,
                    size=entry.size, depth=len(self.unexpected) + 1,
                )
            self.unexpected.append(_Unexpected(
                kind="eager", src_rank=entry.src_rank, tag=entry.tag,
                seq=entry.seq, size=entry.size, data=entry.data,
                arrival=self.sim.now,
            ))
            return
        self._check_seq(entry.src_rank, entry.tag, entry.seq)
        if self.sim.tracing:
            self.sim.record(
                "nmad.eager_rx", src=entry.src_rank, dst=self.rank,
                tag=entry.tag, seq=entry.seq, size=entry.size,
                dur=(self.mem.copy_time(entry.size)
                     + self.costs.upper_complete_cost),
            )
        # copy out of the packet wrapper into the user buffer
        yield self.sim.charge(self.mem.copy_time(entry.size),
                              self.costs.upper_complete_cost)
        req._finish(self.sim, data=entry.data, size=entry.size)

    # -- rendezvous ---------------------------------------------------------
    def _handle_rts(self, entry: RtsEntry, rail: str):
        yield self.costs.rdv_handshake_cost
        req = self._match_posted(entry.src_rank, entry.tag)
        if req is None:
            if self.sim.tracing:
                self.sim.record(
                    "nmad.unexpected", kind="rts", src=entry.src_rank,
                    dst=self.rank, tag=entry.tag, seq=entry.seq,
                    size=entry.size, depth=len(self.unexpected) + 1,
                )
            self.unexpected.append(_Unexpected(
                kind="rts", src_rank=entry.src_rank, tag=entry.tag,
                seq=entry.seq, size=entry.size, rdv_id=entry.rdv_id,
                arrival=self.sim.now,
            ))
            return
        self._check_seq(entry.src_rank, entry.tag, entry.seq)
        if self.sim.tracing:
            self.sim.record(
                "nmad.rts_rx", src=entry.src_rank, dst=self.rank,
                tag=entry.tag, seq=entry.seq, size=entry.size,
                rdv=entry.rdv_id, dur=self.costs.rdv_handshake_cost,
            )
        yield from self._grant_rdv(req, entry.src_rank, entry.size, entry.rdv_id)

    def _reg_cost(self, way: str, peer: int, req_id: int, size: int) -> float:
        """Memory-registration cost for one rendezvous buffer.

        Without a pin-down cache this is today's on-the-fly registration
        (paper Section 4.1.1), keyed by the globally unique request id.
        With a cache, the key models buffer reuse — applications (like
        NetPIPE) re-use their transfer buffers, so a same-peer same-size
        transfer re-pins the same region; the native comparators use the
        same convention.
        """
        if self.reg_cache is None:
            return self.registrar.cost((way, req_id), size)
        cost, info = self.reg_cache.lookup((way, peer, size), size)
        if self.sim.tracing:
            self.sim.record("nmad.reg_cache", rank=self.rank, way=way,
                            size=size, **info)
        return cost

    def _grant_rdv(self, req: NmadRequest, src_rank: int, size: int, rdv_id: int):
        """Register the receive buffer and send clear-to-send."""
        req.size = size
        reg_cost = self._reg_cost("rx", src_rank, req.req_id, size)
        if self.sim.tracing:
            self.sim.record("nmad.rdv_grant", rdv=rdv_id, src=src_rank,
                            dst=self.rank, size=size, dur=reg_cost)
        yield reg_cost
        state = _RdvRecv(req, remaining=size)
        self._rdv_recv[rdv_id] = state
        self.strategy.push(SendItem(
            kind="cts", dst_rank=src_rank, dst_node=self.rank_to_node(src_rank),
            size=0, src_rank=self.rank, rdv_id=rdv_id,
        ), priority=True)

    def _handle_cts(self, entry: CtsEntry, rail: str):
        yield self.costs.rdv_handshake_cost
        state = self._rdv_send.get(entry.rdv_id)
        if state is None:
            raise ProtocolError(f"CTS for unknown rendezvous {entry.rdv_id}")
        if state.cts_seen:
            # a second grant would push the data a second time
            raise ProtocolError(
                f"duplicate CTS for rendezvous {entry.rdv_id}")
        state.cts_seen = True
        req = state.req
        # send-buffer registration: on the fly (paper 4.1.1) unless the
        # IB rail carries a pin-down cache
        reg_cost = self._reg_cost("tx", req.peer, req.req_id, req.size)
        if self.sim.tracing:
            self.sim.record(
                "nmad.cts_rx", rdv=entry.rdv_id, src=self.rank,
                dst=req.peer, size=req.size,
                dur=self.costs.rdv_handshake_cost + reg_cost,
            )
        yield reg_cost
        self.strategy.push(SendItem(
            kind="data", dst_rank=req.peer, dst_node=self.rank_to_node(req.peer),
            size=req.size, src_rank=self.rank, rdv_id=entry.rdv_id,
            data=req.data,
        ), priority=True)

    def _handle_data(self, entry: DataEntry, rail: str):
        driver = self.driver_for_rail(rail)
        if not driver.rdma:
            yield self.costs.data_chunk_cost
        state = self._rdv_recv.get(entry.rdv_id)
        if state is None:
            raise ProtocolError(f"data for unknown rendezvous {entry.rdv_id}")
        if self.sim.tracing:
            self.sim.record("nmad.data_rx", rdv=entry.rdv_id, rail=rail,
                            dst=self.rank, size=entry.size,
                            remaining=state.remaining - entry.size)
        if entry.data is not None:
            state.data = entry.data
        state.remaining -= entry.size
        if state.remaining < 0:
            raise ProtocolError(f"rendezvous {entry.rdv_id} overran its size")
        if state.remaining == 0:
            if self.sim.tracing:
                self.sim.record(
                    "nmad.rdv_complete", rdv=entry.rdv_id,
                    src=state.req.peer, dst=self.rank, tag=state.req.tag,
                    size=state.req.size,
                    dur=(self.costs.match_cost
                         + self.costs.upper_complete_cost),
                )
            yield self.costs.match_cost + self.costs.upper_complete_cost
            del self._rdv_recv[entry.rdv_id]
            state.req._finish(self.sim, data=state.data)

    #: entry type -> handler, every one called as ``handler(core, entry,
    #: rail)``
    _HANDLERS = {EagerEntry: _handle_eager, RtsEntry: _handle_rts,
                 CtsEntry: _handle_cts, DataEntry: _handle_data}

    # ------------------------------------------------------------------
    # injection completions (callback context: no CPU charged)
    # ------------------------------------------------------------------
    def _on_pw_injected(self, pw: PacketWrapper, driver: NmadDriver) -> None:
        for entry in pw.entries:
            if isinstance(entry, EagerEntry):
                if entry.req is not None and not entry.req.complete:
                    entry.req._finish(self.sim)
            elif isinstance(entry, DataEntry):
                state = self._rdv_send.get(entry.rdv_id)
                if state is None:
                    continue
                state.remaining_inject -= entry.size
                if state.remaining_inject <= 0:
                    del self._rdv_send[entry.rdv_id]
                    if not state.req.complete:
                        state.req._finish(self.sim)
        self.strategy.pump()

    # ------------------------------------------------------------------
    # matching helpers
    # ------------------------------------------------------------------
    def _match_posted(self, src_rank: int, tag: Any) -> Optional[NmadRequest]:
        for i, req in enumerate(self.posted):
            if req.peer == src_rank and req.tag == tag:
                return self.posted.pop(i)
        return None

    def _find_unexpected(self, src_rank: int, tag: Any) -> Optional[int]:
        for i, ux in enumerate(self.unexpected):
            if ux.src_rank == src_rank and ux.tag == tag:
                return i
        return None

    def _consume_unexpected(self, req: NmadRequest, ux: _Unexpected):
        self._check_seq(ux.src_rank, ux.tag, ux.seq)
        if self.sim.tracing:
            dur = 0.0
            if ux.kind == "eager":
                dur = (self.costs.match_cost + self.costs.upper_complete_cost
                       + self.mem.copy_time(ux.size))
            self.sim.record(
                "nmad.unexpected_match", kind=ux.kind, src=ux.src_rank,
                dst=self.rank, tag=ux.tag, seq=ux.seq, size=ux.size,
                residency=self.sim.now - ux.arrival, dur=dur,
            )
        if ux.kind == "eager":
            yield self.sim.charge(
                self.costs.match_cost + self.costs.upper_complete_cost,
                self.mem.copy_time(ux.size))
            req._finish(self.sim, data=ux.data, size=ux.size)
        elif ux.kind == "rts":
            yield from self._grant_rdv(req, ux.src_rank, ux.size, ux.rdv_id)
        else:
            raise ProtocolError(f"bad unexpected kind {ux.kind!r}")

    def _check_seq(self, src_rank: int, tag: Any, seq: int) -> None:
        key = (src_rank, tag)
        expected = self._recv_seq.get(key, 0)
        if self.sim.tracing:
            self.sim.record("nmad.seq_check", rank=self.rank, src=src_rank,
                            tag=tag, seq=seq, expected=expected)
        if seq != expected:
            raise ProtocolError(
                f"out-of-order match on rank {self.rank}: (src={src_rank}, "
                f"tag={tag!r}) got seq {seq}, expected {expected}"
            )
        self._recv_seq[key] = seq + 1
