"""The NewMadeleine core: request submission, matching, protocols.

One :class:`NmadCore` exists per MPI process.  It owns:

* the *strategy* holding pending send items (optimization window);
* one *driver* per rail (submission windows over shared node NICs);
* the receive side: posted-request list, unexpected list, and the
  internal eager / rendezvous protocol state.

CPU-cost convention: methods that run on some thread's CPU are
generators yielding simulator timeouts; the caller decides *which*
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
from repro.nmad.reliability import RailHealthMonitor, ReliabilityParams
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
    retries: int = 0
    timer: Any = None


@dataclass
class _RdvRecv:
    req: NmadRequest
    remaining: int
    data: Any = None
    src_rank: int = -1
    got_data: bool = False
    cts_retries: int = 0
    timer: Any = None


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
        check_ordering: bool = True,
        reliability: Optional[ReliabilityParams] = None,
    ):
        self.sim = sim
        self.rank = rank
        self.node_id = node_id
        self.mem = mem
        self.registrar = registrar
        self.costs = costs
        self.sampler = sampler or NetworkSampler()
        self.rank_to_node = rank_to_node or (lambda r: r)
        self.check_ordering = check_ordering
        self.reliability = reliability
        self.health: Optional[RailHealthMonitor] = None
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
        self._done_rdv: set = set()
        self._rts_accepted: set = set()
        # reliability resequencing: next admissible header seq per
        # (src_rank, tag), plus headers parked ahead of a lost predecessor
        self._admit_seq: Dict[Tuple[int, Any], int] = {}
        self._reorder: Dict[Tuple[int, Any], Dict[int, Tuple[Any, str]]] = {}
        self._send_seq: Dict[Tuple[int, Any], int] = {}
        self._recv_seq: Dict[Tuple[int, Any], int] = {}

        # stats
        self.sent_messages = 0
        self.recv_messages = 0

        # race-detector names of the shared protocol state, and the
        # node's virtual progress-lock region for timer callbacks
        self._region = ("node", node_id)
        self._rv_posted = f"nmad.posted@r{rank}"
        self._rv_unexpected = f"nmad.unexpected@r{rank}"
        self._rv_rdv = f"nmad.rdv@r{rank}"
        self._rv_seq = f"nmad.seq@r{rank}"

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_driver(self, driver: NmadDriver) -> None:
        driver.on_injected = self._on_pw_injected
        driver.race_name = f"nmad.pending@r{self.rank}:{driver.name}"
        # repro-check: allow[RPC004] build-time wiring, sim not running
        self.drivers.append(driver)
        if driver.reg_cache is not None:
            # repro-check: allow[RPC004] build-time wiring, sim not running
            self.reg_cache = driver.reg_cache
        self.refresh_preferred()

    def set_strategy(self, strategy) -> None:
        self.strategy = strategy

    def refresh_preferred(self) -> None:
        """Recompute the rail preference order over *live* rails.

        Called after a rail is declared dead or recovers, so strategies
        (including ``split_balance`` striping) only see survivors.
        """
        self._preferred = self.sampler.ordered(
            [d for d in self.drivers if d.alive])

    def preferred_drivers(self) -> List[NmadDriver]:
        """Live drivers in ascending small-message-latency order."""
        return self._preferred

    def fastest_driver(self) -> Optional[NmadDriver]:
        return self._preferred[0] if self._preferred else None

    def driver_for_rail(self, rail: str) -> NmadDriver:
        for d in self.drivers:
            if d.name == rail:
                return d
        raise KeyError(f"no driver for rail {rail!r}")

    def post_pw(self, driver: NmadDriver, pw: PacketWrapper) -> None:
        driver.post(pw)

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
        self.sim.race_write(self._rv_seq)
        req.seq = self._send_seq.get(key, 0)
        self._send_seq[key] = req.seq + 1
        self.sent_messages += 1

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
            yield self.sim.timeout(self.costs.send_post)
            state = _RdvSend(req, remaining_inject=size)
            self.sim.race_write(self._rv_rdv)
            self._rdv_send[rdv_id] = state
            self.strategy.push(SendItem(
                kind="rts", dst_rank=dst_rank, dst_node=dst_node,
                size=size, src_rank=self.rank, tag=tag, seq=req.seq,
                rdv_id=rdv_id, data=data, req=req,
            ), pump=False)
            if self.reliability is not None and self.reliability.rdv_timeout > 0:
                state.timer = self.sim.schedule(
                    self.reliability.rdv_timeout, self._rts_check, rdv_id)
        return req

    def _rts_check(self, rdv_id: int) -> None:
        """RTS retry timer: no CTS seen yet → re-issue the request."""
        with self.sim.sync_region(self._region, "nmad.rdv_timer"):
            self._rts_check_locked(rdv_id)

    def _rts_check_locked(self, rdv_id: int) -> None:
        self.sim.race_write(self._rv_rdv)
        state = self._rdv_send.get(rdv_id)
        if state is None or state.cts_seen:
            return
        state.retries += 1
        r = self.reliability
        gave_up = state.retries > r.rdv_max_retries
        if self.sim.tracing:
            self.sim.record("reliab.rdv_timeout", kind="rts", rdv=rdv_id,
                            rank=self.rank, retry=state.retries,
                            gave_up=gave_up)
        if gave_up:
            return
        req = state.req
        self.strategy.push(SendItem(
            kind="rts", dst_rank=req.peer,
            dst_node=self.rank_to_node(req.peer), size=req.size,
            src_rank=self.rank, tag=req.tag, seq=req.seq,
            rdv_id=rdv_id, data=req.data, req=req,
        ), priority=True)
        state.timer = self.sim.schedule(
            r.rdv_timeout * (r.backoff ** state.retries),
            self._rts_check, rdv_id)

    def _cts_check(self, rdv_id: int) -> None:
        """CTS retry timer: no data arrived yet → re-issue the grant."""
        with self.sim.sync_region(self._region, "nmad.rdv_timer"):
            self._cts_check_locked(rdv_id)

    def _cts_check_locked(self, rdv_id: int) -> None:
        self.sim.race_write(self._rv_rdv)
        state = self._rdv_recv.get(rdv_id)
        if state is None or state.got_data:
            return
        state.cts_retries += 1
        r = self.reliability
        gave_up = state.cts_retries > r.rdv_max_retries
        if self.sim.tracing:
            self.sim.record("reliab.rdv_timeout", kind="cts", rdv=rdv_id,
                            rank=self.rank, retry=state.cts_retries,
                            gave_up=gave_up)
        if gave_up:
            return
        self.strategy.push(SendItem(
            kind="cts", dst_rank=state.src_rank,
            dst_node=self.rank_to_node(state.src_rank), size=0,
            src_rank=self.rank, rdv_id=rdv_id,
        ), priority=True)
        state.timer = self.sim.schedule(
            r.rdv_timeout * (r.backoff ** state.cts_retries),
            self._cts_check, rdv_id)

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
        yield self.sim.timeout(self.costs.recv_post)
        self.sim.race_read(self._rv_unexpected)
        idx = self._find_unexpected(src_rank, tag)
        if idx is None:
            self.sim.race_write(self._rv_posted)
            self.posted.append(req)
            return req
        self.sim.race_write(self._rv_unexpected)
        ux = self.unexpected.pop(idx)
        yield from self._consume_unexpected(req, ux)
        return req

    def probe(self, tag: Any, src: Any = ANY) -> Optional[Tuple[int, int]]:
        """First unexpected message matching ``tag`` (and ``src``).

        Returns ``(src_rank, size)`` or None.  This is the "new
        NewMadeleine function" the MPICH2 module polls for ANY_SOURCE
        support (paper Section 3.1.3/3.2.2).
        """
        self.sim.race_read(self._rv_unexpected)
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
            yield from self.handle_entry(entry, rail)

    def handle_entry(self, entry, rail: str):
        if self.reliability is not None and isinstance(
                entry, (EagerEntry, RtsEntry)):
            # retransmission can deliver headers out of order; admit them
            # into matching strictly by seq so non-overtaking still holds
            key = (entry.src_rank, entry.tag)
            self.sim.race_write(self._rv_seq)
            expected = self._admit_seq.get(key, 0)
            if entry.seq != expected:
                if entry.seq > expected:
                    self._reorder.setdefault(key, {})[entry.seq] = (entry, rail)
                    if self.sim.tracing:
                        self.sim.record(
                            "reliab.reorder", rank=self.rank,
                            src=entry.src_rank, seq=entry.seq,
                            expected=expected,
                            held=len(self._reorder[key]),
                        )
                return
            self._admit_seq[key] = expected + 1
            yield from self._dispatch_entry(entry, rail)
            held = self._reorder.get(key)
            while held:
                nxt = self._admit_seq.get(key, 0)
                if nxt not in held:
                    break
                parked, parked_rail = held.pop(nxt)
                self._admit_seq[key] = nxt + 1
                yield from self._dispatch_entry(parked, parked_rail)
            return
        yield from self._dispatch_entry(entry, rail)

    def _dispatch_entry(self, entry, rail: str):
        if isinstance(entry, EagerEntry):
            yield from self._handle_eager(entry)
        elif isinstance(entry, RtsEntry):
            yield from self._handle_rts(entry)
        elif isinstance(entry, CtsEntry):
            yield from self._handle_cts(entry)
        elif isinstance(entry, DataEntry):
            yield from self._handle_data(entry, rail)
        else:
            raise ProtocolError(f"unknown entry {entry!r}")

    # -- eager ------------------------------------------------------------
    def _handle_eager(self, entry: EagerEntry):
        yield self.sim.timeout(self.costs.match_cost)
        self.sim.race_write(self._rv_posted)
        req = self._match_posted(entry.src_rank, entry.tag)
        if req is None:
            if self.sim.tracing:
                self.sim.record(
                    "nmad.unexpected", kind="eager", src=entry.src_rank,
                    dst=self.rank, tag=entry.tag, seq=entry.seq,
                    size=entry.size, depth=len(self.unexpected) + 1,
                )
            self.sim.race_write(self._rv_unexpected)
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
        self.recv_messages += 1
        req._finish(self.sim, data=entry.data, size=entry.size)

    # -- rendezvous ---------------------------------------------------------
    def _handle_rts(self, entry: RtsEntry):
        yield self.sim.timeout(self.costs.rdv_handshake_cost)
        if self.reliability is not None and self._rts_duplicate(entry):
            return
        # synchronous (no yield between check and add): a retried copy
        # arriving during any later yield point is recognized above
        self.sim.race_write(self._rv_rdv)
        self._rts_accepted.add(entry.rdv_id)
        self.sim.race_write(self._rv_posted)
        req = self._match_posted(entry.src_rank, entry.tag)
        if req is None:
            if self.sim.tracing:
                self.sim.record(
                    "nmad.unexpected", kind="rts", src=entry.src_rank,
                    dst=self.rank, tag=entry.tag, seq=entry.seq,
                    size=entry.size, depth=len(self.unexpected) + 1,
                )
            self.sim.race_write(self._rv_unexpected)
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

    def _rts_duplicate(self, entry: RtsEntry) -> bool:
        """Detect a re-sent RTS (reliability retries); answer if needed."""
        if entry.rdv_id not in self._rts_accepted:
            return False
        if self.sim.tracing:
            self.sim.record("reliab.rdv_duplicate", kind="rts",
                            rdv=entry.rdv_id, rank=self.rank)
        if entry.rdv_id in self._rdv_recv:
            # already granted: the CTS must have been lost — re-issue it
            self.strategy.push(SendItem(
                kind="cts", dst_rank=entry.src_rank,
                dst_node=self.rank_to_node(entry.src_rank), size=0,
                src_rank=self.rank, rdv_id=entry.rdv_id,
            ), priority=True)
        # otherwise the first copy is still queued unexpected, or its
        # grant is mid-flight, or the rendezvous already completed — in
        # every case the normal path (or the sender's next retry) makes
        # progress without this copy
        return True

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
        yield self.sim.timeout(reg_cost)
        state = _RdvRecv(req, remaining=size, src_rank=src_rank)
        self.sim.race_write(self._rv_rdv)
        self._rdv_recv[rdv_id] = state
        self.strategy.push(SendItem(
            kind="cts", dst_rank=src_rank, dst_node=self.rank_to_node(src_rank),
            size=0, src_rank=self.rank, rdv_id=rdv_id,
        ), priority=True)
        if self.reliability is not None and self.reliability.rdv_timeout > 0:
            state.timer = self.sim.schedule(
                self.reliability.rdv_timeout, self._cts_check, rdv_id)

    def _handle_cts(self, entry: CtsEntry):
        yield self.sim.timeout(self.costs.rdv_handshake_cost)
        self.sim.race_write(self._rv_rdv)
        state = self._rdv_send.get(entry.rdv_id)
        if state is None:
            if self.reliability is not None:
                # rendezvous already fully injected: a retried CTS
                if self.sim.tracing:
                    self.sim.record("reliab.rdv_duplicate", kind="cts",
                                    rdv=entry.rdv_id, rank=self.rank)
                return
            raise ProtocolError(f"CTS for unknown rendezvous {entry.rdv_id}")
        if state.cts_seen:
            if self.sim.tracing:
                self.sim.record("reliab.rdv_duplicate", kind="cts",
                                rdv=entry.rdv_id, rank=self.rank)
            return
        state.cts_seen = True
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
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
        yield self.sim.timeout(reg_cost)
        self.strategy.push(SendItem(
            kind="data", dst_rank=req.peer, dst_node=self.rank_to_node(req.peer),
            size=req.size, src_rank=self.rank, rdv_id=entry.rdv_id,
            data=req.data,
        ), priority=True)

    def _handle_data(self, entry: DataEntry, rail: str):
        driver = self.driver_for_rail(rail)
        if not driver.rdma:
            yield self.sim.timeout(self.costs.data_chunk_cost)
        self.sim.race_write(self._rv_rdv)
        state = self._rdv_recv.get(entry.rdv_id)
        if state is None:
            if self.reliability is not None and entry.rdv_id in self._done_rdv:
                return  # stale duplicate for a finished rendezvous
            raise ProtocolError(f"data for unknown rendezvous {entry.rdv_id}")
        state.got_data = True
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
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
            yield self.sim.timeout(self.costs.match_cost
                                   + self.costs.upper_complete_cost)
            del self._rdv_recv[entry.rdv_id]
            self._done_rdv.add(entry.rdv_id)
            self.recv_messages += 1
            state.req._finish(self.sim, data=state.data)

    # ------------------------------------------------------------------
    # injection completions (callback context: no CPU charged)
    # ------------------------------------------------------------------
    def _on_pw_injected(self, pw: PacketWrapper, driver: NmadDriver) -> None:
        self.sim.race_write(self._rv_rdv)
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
                    if state.timer is not None:
                        state.timer.cancel()
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
            self.recv_messages += 1
            req._finish(self.sim, data=ux.data, size=ux.size)
        elif ux.kind == "rts":
            yield from self._grant_rdv(req, ux.src_rank, ux.size, ux.rdv_id)
        else:
            raise ProtocolError(f"bad unexpected kind {ux.kind!r}")

    def _check_seq(self, src_rank: int, tag: Any, seq: int) -> None:
        if not self.check_ordering:
            return
        key = (src_rank, tag)
        self.sim.race_write(self._rv_seq)
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
