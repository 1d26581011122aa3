"""Generic NewMadeleine rail driver."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.hardware.nic import NIC, Frame
from repro.nmad.packet import PacketWrapper
from repro.nmad.reliability import ReliabilityParams, _PendingPw


class NmadDriver:
    """One rail endpoint as seen by a NewMadeleine core.

    Parameters
    ----------
    window:
        Maximum packet wrappers in flight (default 2: one being
        serialized, one queued on the NIC).
    rdma:
        True when rendezvous data moves by RDMA (no receive-side
        per-chunk CPU cost) — the InfiniBand Verbs behaviour.

    When :attr:`reliability` is set (see
    :mod:`repro.nmad.reliability`), every posted packet wrapper is
    tracked until the receiving node acks it; on timeout it is
    retransmitted with exponential backoff, and repeated timeouts mark
    the rail suspect through the attached :attr:`health` monitor.
    """

    def __init__(self, nic: NIC, window: int = 2, rdma: bool = False):
        if window < 1:
            raise ValueError("driver window must be >= 1")
        self.nic = nic
        self.window = window
        self.rdma = rdma
        self.inflight = 0
        #: called as ``on_injected(pw, driver)`` at local completion
        self.on_injected: Optional[Callable[[PacketWrapper, "NmadDriver"], None]] = None
        self.pws_posted = 0
        #: pin-down registration cache (IB rails only; None = on the fly)
        self.reg_cache = None
        # -- reliability state (inert unless `reliability` is set) -----
        self.reliability: Optional[ReliabilityParams] = None
        self.health = None          # RailHealthMonitor, set by the builder
        self.alive = True
        self.last_dst: Optional[int] = None   # most recent peer node (probe target)
        self._pending: Dict[int, _PendingPw] = {}
        self._backlog: Deque[PacketWrapper] = deque()
        self._consec_timeouts = 0
        self.retransmits = 0
        self.timeouts = 0
        self.acks = 0
        # race-detector name of the submission/retransmit state; the
        # owning NmadCore overwrites it with a rank-qualified name
        self.race_name = f"nmad.pending@{nic.params.name}"
        self._region = ("node", nic.node_id)

    @property
    def name(self) -> str:
        return self.nic.params.name

    def window_free(self) -> bool:
        if self.nic.sim.monitor is not None:
            self.nic.sim.race_read(self.race_name)
        return self.alive and not self._backlog and self.inflight < self.window

    def small_latency(self) -> float:
        """One-way raw latency for a tiny message (driver preference key)."""
        p = self.nic.params
        return p.post_overhead + p.transfer_time(8) + p.recv_overhead

    def bandwidth(self) -> float:
        return self.nic.params.bandwidth

    def post(self, pw: PacketWrapper) -> None:
        """Submit a packet wrapper; requires window space."""
        if not self.window_free():
            raise RuntimeError(f"driver {self.name} window full")
        self._do_post(pw)

    def _do_post(self, pw: PacketWrapper) -> None:
        if self.nic.sim.monitor is not None:
            self.nic.sim.race_write(self.race_name)
        self.inflight += 1
        self.pws_posted += 1
        self.last_dst = pw.dst_node
        frame = Frame(
            src=pw.src_node, dst=pw.dst_node, size=pw.wire_size,
            kind="nmad", payload=pw,
        )
        evt = self.nic.post_send(frame)
        evt.add_done_callback(lambda _e: self._injected(pw))
        if self.reliability is not None:
            self._track(pw)

    def _injected(self, pw: PacketWrapper) -> None:
        # injection completions fire from the NIC's timeline; they touch
        # the window/backlog under the node's virtual progress lock
        with self.nic.sim.sync_region(self._region, "nmad.injected"):
            if self.nic.sim.monitor is not None:
                self.nic.sim.race_write(self.race_name)
            self.inflight -= 1
            # failover backlog outranks fresh strategy output for the window
            while self._backlog and self.inflight < self.window:
                self._do_post(self._backlog.popleft())
            if self.on_injected is not None:
                self.on_injected(pw, self)

    # ------------------------------------------------------------------
    # ack / retransmit
    # ------------------------------------------------------------------
    def _rtt_bound(self) -> float:
        """Model upper bound on injection-end → ack-arrival."""
        p = self.nic.params
        return 2 * p.wire_latency + p.injection_time(self.reliability.ack_size)

    def _track(self, pw: PacketWrapper) -> None:
        sim = self.nic.sim
        sim.race_write(self.race_name)
        entry = self._pending.get(pw.pw_id)
        if entry is None:
            entry = self._pending[pw.pw_id] = _PendingPw(pw, posted_at=sim.now)
        idle = self.nic.tx_idle_at()  # right after post: injection end
        r = self.reliability
        delay = (idle - sim.now) + (self._rtt_bound() + r.timeout_slack) * (
            r.backoff ** entry.retries)
        entry.timer = sim.schedule(delay, self._on_timeout, pw.pw_id)

    def handle_ack(self, pw_id: int) -> None:
        """The receiving node confirmed delivery of ``pw_id``."""
        self.nic.sim.race_write(self.race_name)
        entry = self._pending.pop(pw_id, None)
        if entry is None:
            return  # duplicate ack (retransmit raced the original)
        if entry.timer is not None:
            entry.timer.cancel()
        self.acks += 1
        self._consec_timeouts = 0
        sim = self.nic.sim
        if sim.tracing:
            sim.record("reliab.ack", rail=self.name, pw=pw_id,
                       rtt=sim.now - entry.posted_at, retries=entry.retries)

    def _on_timeout(self, pw_id: int) -> None:
        """Retransmit timer: runs on the NIC's timeline, not a thread."""
        with self.nic.sim.sync_region(self._region, "reliab.timeout"):
            self._on_timeout_locked(pw_id)

    def _on_timeout_locked(self, pw_id: int) -> None:
        self.nic.sim.race_write(self.race_name)
        entry = self._pending.get(pw_id)
        if entry is None or not self.alive:
            return
        entry.retries += 1
        self._consec_timeouts += 1
        self.timeouts += 1
        sim = self.nic.sim
        if sim.tracing:
            sim.record("reliab.timeout", rail=self.name, pw=pw_id,
                       retry=entry.retries, consec=self._consec_timeouts)
        r = self.reliability
        if self.health is not None and (
                self._consec_timeouts >= r.dead_after
                or entry.retries > r.max_retries):
            self.health.rail_suspect(self)
            return
        if entry.retries > r.max_retries:
            # no health monitor: give the wrapper up (the run will then
            # deadlock loudly — losing a message must never be silent)
            self._pending.pop(pw_id, None)
            return
        self._retransmit(entry)

    def _retransmit(self, entry: _PendingPw) -> None:
        self.nic.sim.race_write(self.race_name)
        pw = entry.pw
        self.retransmits += 1
        sim = self.nic.sim
        if sim.tracing:
            sim.record("reliab.retransmit", rail=self.name, pw=pw.pw_id,
                       retry=entry.retries, size=pw.wire_size)
        # same wrapper object → same pw_id → receiver-side dedup; the
        # retransmission occupies the NIC but not the submission window
        self.nic.post_send(Frame(
            src=pw.src_node, dst=pw.dst_node, size=pw.wire_size,
            kind="nmad", payload=pw,
        ))
        idle = self.nic.tx_idle_at()
        r = self.reliability
        delay = (idle - sim.now) + (self._rtt_bound() + r.timeout_slack) * (
            r.backoff ** entry.retries)
        entry.timer = sim.schedule(delay, self._on_timeout, pw.pw_id)

    # ------------------------------------------------------------------
    # failover support
    # ------------------------------------------------------------------
    def take_pending(self) -> List[PacketWrapper]:
        """Strip and return every unacked wrapper (rail declared dead)."""
        self.nic.sim.race_write(self.race_name)
        orphans: List[PacketWrapper] = []
        for entry in self._pending.values():
            if entry.timer is not None:
                entry.timer.cancel()
            orphans.append(entry.pw)
        self._pending.clear()
        orphans.extend(self._backlog)
        self._backlog.clear()
        return orphans

    def failover_post(self, pw: PacketWrapper) -> None:
        """Accept a wrapper migrating from a dead rail."""
        self.nic.sim.race_write(self.race_name)
        if self.alive and not self._backlog and self.inflight < self.window:
            self._do_post(pw)
        else:
            self._backlog.append(pw)

    def reset_health(self) -> None:
        self._consec_timeouts = 0

    def __repr__(self) -> str:
        return f"NmadDriver({self.name}, window={self.window}, inflight={self.inflight})"
