"""NIC and fabric models.

A :class:`Fabric` is one rail: a full-bisection switch connecting one
:class:`NIC` per node.  Sending occupies the source NIC's transmit
engine for the injection time (per-message gap + size/bandwidth [+ DMA
setup]), then the frame arrives at the destination NIC ``wire_latency``
later and is appended to its receive queue.  Receive-side software polls
that queue.

Frames model *network-level* messages (NewMadeleine packet wrappers,
native-stack protocol messages), not MPI messages: one MPI message may
map to several frames (rendezvous, multirail striping) or share a frame
with others (aggregation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.hardware.params import NICParams
from repro.simulator import Channel, Event, Simulator

__all__ = ["reset_frame_ids", "Frame", "NIC", "Fabric"]

_frame_ids = itertools.count()


def reset_frame_ids() -> None:
    """Rewind the global frame-id counter (determinism tooling only)."""
    global _frame_ids
    _frame_ids = itertools.count()


@dataclass
class Frame:
    """One message on the wire."""

    src: int               # source node id
    dst: int               # destination node id
    size: int              # bytes on the wire (headers included by caller)
    kind: str = "data"     # protocol discriminator, e.g. "eager"/"rts"/"cts"
    payload: Any = None    # opaque upper-layer content
    rail: str = ""         # filled in by the fabric
    corrupt: bool = False  # CRC-fail marker set by a fault injector
    frame_id: int = field(default_factory=lambda: next(_frame_ids))


class NIC:
    """One rail endpoint on a node.

    The transmit engine is a FIFO: injections serialize.  The
    ``rx_queue`` is a :class:`~repro.simulator.resources.Channel` of
    delivered frames; an optional ``rx_notify`` callback fires on each
    delivery so progress engines can react without busy polling.
    """

    def __init__(self, sim: Simulator, node_id: int, params: NICParams, fabric: "Fabric"):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.fabric = fabric
        self.rx_queue = Channel(sim)
        #: called as ``rx_notify(frame)`` at delivery time (may be None)
        self.rx_notify = None
        self._tx_free_at = 0.0
        # running stats
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0

    # -- sending -------------------------------------------------------
    def post_send(self, frame: Frame) -> Event:
        """Queue a frame for injection.

        Returns an event succeeding when the NIC has finished reading
        the frame out of host memory (local completion — the buffer may
        be reused), *not* when the frame reaches the destination.
        """
        if frame.src != self.node_id:
            raise ValueError(f"frame src {frame.src} posted on NIC of node {self.node_id}")
        frame.rail = self.params.name
        start = max(self.sim.now, self._tx_free_at)
        injection = self.params.injection_time(frame.size)
        injector = self.fabric.injector
        if injector is not None:
            injection += injector.tx_stall(self, frame, injection)
        self._tx_free_at = start + injection
        self.tx_frames += 1
        self.tx_bytes += frame.size
        arrival = self._tx_free_at + self.params.wire_latency
        self.sim.at(arrival, self.fabric.deliver, frame)
        if self.sim.tracing:
            self.sim.record(
                "nic.tx", rail=self.params.name, node=self.node_id,
                dst=frame.dst, size=frame.size, kind=frame.kind,
                frame=frame.frame_id, dur=injection,
                queued=start - self.sim.now,
            )
        return self.sim.timeout_at(self._tx_free_at, frame)

    def post_control(self, frame: Frame) -> None:
        """Send a small out-of-band control frame (ack/probe).

        Control frames ride a dedicated low-priority engine: they do
        not occupy the data transmit FIFO (so a queued megabyte of data
        cannot delay an ack past its retransmission deadline), but they
        still cross the fabric and are subject to fault injection.
        """
        if frame.src != self.node_id:
            raise ValueError(f"frame src {frame.src} posted on NIC of node {self.node_id}")
        frame.rail = self.params.name
        injection = self.params.injection_time(frame.size)
        self.tx_frames += 1
        self.tx_bytes += frame.size
        arrival = self.sim.now + injection + self.params.wire_latency
        self.sim.at(arrival, self.fabric.deliver, frame)
        if self.sim.tracing:
            self.sim.record(
                "nic.tx", rail=self.params.name, node=self.node_id,
                dst=frame.dst, size=frame.size, kind=frame.kind,
                frame=frame.frame_id, dur=injection, queued=0.0, oob=True,
            )

    @property
    def tx_busy(self) -> bool:
        """True while the transmit engine has queued/ongoing injections."""
        return self._tx_free_at > self.sim.now

    def tx_idle_at(self) -> float:
        """Earliest time a new injection could start."""
        return max(self.sim.now, self._tx_free_at)

    # -- receiving -----------------------------------------------------
    def _deliver(self, frame: Frame) -> None:
        self.rx_frames += 1
        self.rx_bytes += frame.size
        if self.sim.tracing:
            self.sim.record(
                "nic.rx", rail=self.params.name, node=self.node_id,
                src=frame.src, size=frame.size, kind=frame.kind,
                frame=frame.frame_id,
            )
        self.rx_queue.put(frame)
        if self.rx_notify is not None:
            self.rx_notify(frame)


class Fabric:
    """One rail: a set of NICs joined by a full-bisection switch."""

    def __init__(self, sim: Simulator, params: NICParams):
        self.sim = sim
        self.params = params
        self.name = params.name
        self._nics: Dict[int, NIC] = {}
        #: optional :class:`repro.faults.injector.FaultInjector`
        self.injector = None
        #: :class:`repro.hardware.netgraph.TopologySpec` on routed rails
        self.topology = None

    def observed_source_delay(self, node_id: int) -> float:
        """Recent link-queueing delay seen by frames from ``node_id``.

        The flat fabric never queues outside the NICs, so this is 0;
        :class:`repro.hardware.netgraph.RoutedFabric` overrides it with
        a live congestion estimate that contention-aware multirail
        strategies consume.
        """
        return 0.0

    def attach(self, node_id: int) -> NIC:
        """Create and register this rail's NIC for ``node_id``."""
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already attached to rail {self.name}")
        nic = NIC(self.sim, node_id, self.params, self)
        self._nics[node_id] = nic
        return nic

    def nic(self, node_id: int) -> NIC:
        return self._nics[node_id]

    def deliver(self, frame: Frame) -> None:
        dst = self._nics.get(frame.dst)
        if dst is None:
            raise ValueError(f"no NIC for destination node {frame.dst} on rail {self.name}")
        if self.injector is not None and not self.injector.on_deliver(self, frame):
            return  # lost on the wire
        dst._deliver(frame)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nics
