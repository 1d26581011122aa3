"""Reliability: acks, retransmission, and multirail failover.

The base simulation assumes a perfect fabric, so NewMadeleine's wire
protocols never needed delivery guarantees.  Once a
:class:`~repro.faults.injector.FaultInjector` can drop, corrupt, or
black-hole frames, three cooperating mechanisms keep MPI semantics
(every message delivered exactly once, in order per ``(src, tag)``):

* **driver-level ack/retransmit** — every data frame (packet wrapper)
  is acked by the receiving node out-of-band; the sending
  :class:`~repro.nmad.drivers.base.NmadDriver` keeps unacked wrappers
  and retransmits on timeout with exponential backoff
  (:class:`ReliabilityParams`).  Receivers deduplicate on the globally
  unique ``pw_id`` (:class:`FrameReliability`), so retransmission can
  never double-deliver.
* **rail health + failover** — consecutive timeouts (or a wrapper
  exhausting its retries) mark the rail *suspect*; a PIOMan ltask
  confirms and declares it dead (:class:`RailHealthMonitor`).  Unacked
  wrappers migrate to the fastest surviving rail, the core's preferred
  list is recomputed so ``split_balance`` stripes over survivors only,
  and periodic out-of-band probes detect recovery and restore the rail.
* **rendezvous timeouts** — RTS/CTS are retried end-to-end by
  :class:`~repro.nmad.core.NmadCore` (see ``rdv_timeout``), covering
  handshakes lost before any driver-level state existed.

Everything here is deterministic: timeouts are computed from model
parameters, probes are scheduled at fixed backoff points, and no random
draws are made (the only randomness in a chaos run lives in the fault
injector's seeded per-rail streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.hardware.nic import Frame
from repro.nmad.packet import PacketWrapper


@dataclass(frozen=True)
class ReliabilityParams:
    """Constants of the ack/retransmit/failover machinery."""

    #: wire bytes of an ack control frame
    ack_size: int = 16
    #: wire bytes of a rail-liveness probe frame
    probe_size: int = 16
    #: grace added to the model RTT bound before a retransmit fires, s
    timeout_slack: float = 8e-6
    #: multiplier applied to the timeout on every retry
    backoff: float = 2.0
    #: retransmissions per wrapper before the rail is declared suspect
    max_retries: int = 4
    #: consecutive timeouts (across wrappers) declaring the rail suspect
    dead_after: int = 2
    #: base interval between liveness probes of a dead rail, s
    probe_interval: float = 50e-6
    #: multiplier applied to the probe interval on every missed probe
    probe_backoff: float = 1.5
    #: probes before giving the rail up for the rest of the run
    max_probes: int = 64
    #: rendezvous RTS/CTS retry timeout, s (0 disables rdv timers)
    rdv_timeout: float = 200e-6
    #: RTS/CTS re-pushes before the handshake gives up
    rdv_max_retries: int = 3


@dataclass
class _Ack:
    """Payload of an out-of-band ``nm_ack`` frame."""

    ack_id: int        # pw_id (data ack) or probe number (probe ack)
    dst_rank: int      # rank whose driver state the ack clears
    probe: bool = False


@dataclass
class _Probe:
    """Payload of an out-of-band ``nm_probe`` frame."""

    probe_id: int
    src_rank: int
    rail: str


@dataclass
class _PendingPw:
    """One posted-but-unacked packet wrapper on a driver."""

    pw: PacketWrapper
    posted_at: float
    retries: int = 0
    timer: Any = None


class RailHealthMonitor:
    """Marks rails dead/alive for one core and drives failover.

    Suspicion comes from the driver (consecutive timeouts or exhausted
    retries); confirmation runs as a PIOMan ltask when the node has a
    PIOMan (the paper's progress engine doubles as the health checker),
    inline otherwise.  A dead rail is probed out-of-band at backoff
    intervals; the first answered probe restores it.
    """

    def __init__(self, core, params: ReliabilityParams, pioman=None):
        self.core = core
        self.params = params
        self.pioman = pioman
        self._suspected: set = set()
        self._down_since: Dict[Any, float] = {}
        self._probe_timer: Dict[Any, Any] = {}
        self._parked: List[PacketWrapper] = []
        # stats
        self.rails_died = 0
        self.rails_recovered = 0
        self.failovers = 0
        # race-detector name of the suspicion/probe/parked state, and
        # the node's virtual progress-lock region for probe timers
        self._rv = f"reliab.health@r{core.rank}"
        self._region = ("node", core.node_id)

    @property
    def sim(self):
        return self.core.sim

    # -- going down ------------------------------------------------------
    def rail_suspect(self, driver) -> None:
        """A driver crossed its timeout threshold; confirm via ltask."""
        self.sim.race_write(self._rv)
        if not driver.alive or driver in self._suspected:
            return
        self._suspected.add(driver)
        if self.pioman is not None:
            params = self.pioman.params

            def check():
                yield params.health_check_cost
                self._declare_dead(driver)

            self.pioman.submit(check)
        else:
            self._declare_dead(driver)

    def _bandwidth_share(self, driver) -> float:
        rates = {d: self.core.sampler.sampled_bandwidth(d)
                 for d in self.core.drivers}
        total = sum(rates.values())
        return rates[driver] / total if total else 0.0

    def _declare_dead(self, driver) -> None:
        self.sim.race_write(self._rv)
        self._suspected.discard(driver)
        if not driver.alive:
            return
        driver.alive = False
        self.rails_died += 1
        self._down_since[driver] = self.sim.now
        orphans = driver.take_pending()
        if self.sim.tracing:
            self.sim.record(
                "reliab.rail_down", rail=driver.name, node=self.core.node_id,
                rank=self.core.rank, pending=len(orphans),
                share=self._bandwidth_share(driver),
            )
        self.core.refresh_preferred()
        self._reroute(orphans, from_rail=driver.name)
        if self.core.strategy is not None:
            self.core.strategy.pump()
        self._schedule_probe(driver, 0)

    def _reroute(self, orphans: List[PacketWrapper], from_rail: str) -> None:
        target = self.core.fastest_driver()
        for pw in orphans:
            if target is None:
                self._parked.append(pw)
                continue
            self.failovers += 1
            if self.sim.tracing:
                self.sim.record(
                    "reliab.failover", pw=pw.pw_id, size=pw.wire_size,
                    src=from_rail, dst=target.name, rank=self.core.rank,
                )
            target.failover_post(pw)

    # -- probing / coming back up ---------------------------------------
    def _schedule_probe(self, driver, n: int) -> None:
        if n >= self.params.max_probes:
            if self.sim.tracing:
                self.sim.record("reliab.probe", rail=driver.name,
                                rank=self.core.rank, n=n, gave_up=True)
            return
        delay = self.params.probe_interval * (
            self.params.probe_backoff ** min(n, 10))
        self.sim.race_write(self._rv)
        self._probe_timer[driver] = self.sim.schedule(
            delay, self._send_probe, driver, n)

    def _send_probe(self, driver, n: int) -> None:
        """Probe timer: runs on its own timeline, not a thread."""
        with self.sim.sync_region(self._region, "reliab.probe"):
            self._send_probe_locked(driver, n)

    def _send_probe_locked(self, driver, n: int) -> None:
        self.sim.race_write(self._rv)
        if driver.alive:
            return
        dst_node = driver.last_dst
        if dst_node is None:
            return
        probe = _Probe(probe_id=n, src_rank=self.core.rank, rail=driver.name)
        if self.sim.tracing:
            self.sim.record("reliab.probe", rail=driver.name,
                            rank=self.core.rank, n=n, gave_up=False)
        driver.nic.post_control(Frame(
            src=driver.nic.node_id, dst=dst_node,
            size=self.params.probe_size, kind="nm_probe", payload=probe,
        ))
        self._schedule_probe(driver, n + 1)

    def on_probe_ack(self, driver) -> None:
        """A dead rail answered a probe: restore it."""
        self.sim.race_write(self._rv)
        if driver.alive:
            return
        driver.alive = True
        driver.reset_health()
        self.rails_recovered += 1
        timer = self._probe_timer.pop(driver, None)
        if timer is not None:
            timer.cancel()
        downtime = self.sim.now - self._down_since.pop(driver, self.sim.now)
        if self.sim.tracing:
            self.sim.record(
                "reliab.rail_up", rail=driver.name, node=self.core.node_id,
                rank=self.core.rank, downtime=downtime,
            )
        self.core.refresh_preferred()
        if self._parked:
            parked, self._parked = self._parked, []
            self._reroute(parked, from_rail="(parked)")
        if self.core.strategy is not None:
            self.core.strategy.pump()


class FrameReliability:
    """Node-level receive hook: acks, probes, and duplicate suppression.

    Owned by the runtime and consulted by ``_route_frame`` before any
    frame reaches a stack.  Returns False from :meth:`on_frame` when
    the frame is consumed here (control frames, duplicates, CRC-failed
    corrupt frames are handled by the caller).
    """

    def __init__(self, sim, params: ReliabilityParams,
                 core_of, nic_of):
        """``core_of(rank)`` → NmadCore; ``nic_of(node, rail)`` → NIC."""
        self.sim = sim
        self.params = params
        self.core_of = core_of
        self.nic_of = nic_of
        self._seen: set = set()
        # stats
        self.acked = 0
        self.duplicates = 0

    def on_frame(self, frame: Frame) -> bool:
        payload = frame.payload
        if frame.kind == "nm_ack":
            self._handle_ack(frame, payload)
            return False
        if frame.kind == "nm_probe":
            self._send_ack(frame, ack_id=payload.probe_id,
                           dst_rank=payload.src_rank, probe=True)
            return False
        if isinstance(payload, PacketWrapper):
            src_rank = payload.entries[0].src_rank
            self._send_ack(frame, ack_id=payload.pw_id,
                           dst_rank=src_rank, probe=False)
            if self.sim.monitor is not None:
                self.sim.race_write(f"reliab.seen@n{frame.dst}")
            if payload.pw_id in self._seen:
                self.duplicates += 1
                if self.sim.tracing:
                    self.sim.record("reliab.duplicate", pw=payload.pw_id,
                                    rail=frame.rail, node=frame.dst,
                                    size=frame.size)
                return False
            self._seen.add(payload.pw_id)
        return True

    # -- internals -------------------------------------------------------
    def _send_ack(self, frame: Frame, ack_id: int, dst_rank: int,
                  probe: bool) -> None:
        self.acked += 1
        nic = self.nic_of(frame.dst, frame.rail)
        nic.post_control(Frame(
            src=frame.dst, dst=frame.src, size=self.params.ack_size,
            kind="nm_ack",
            payload=_Ack(ack_id=ack_id, dst_rank=dst_rank, probe=probe),
        ))

    def _handle_ack(self, frame: Frame, ack: _Ack) -> None:
        core = self.core_of(ack.dst_rank)
        try:
            driver = core.driver_for_rail(frame.rail)
        except KeyError:
            return
        if ack.probe:
            if driver.health is not None:
                driver.health.on_probe_ack(driver)
        else:
            driver.handle_ack(ack.ack_id)
