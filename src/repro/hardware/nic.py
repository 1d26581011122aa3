"""NIC and fabric models.

A :class:`Fabric` is one rail: a full-bisection switch connecting one
:class:`NIC` per node.  Sending occupies the source NIC's transmit
engine for the injection time (per-message gap + size/bandwidth [+ DMA
setup]), then the frame arrives at the destination NIC ``wire_latency``
later.  There it is handed to the NIC's ``rx_notify`` callback (the
runtime's frame router in MPI runs) or, when none is set, appended to
its receive queue for receive-side software to poll.

Frames model *network-level* messages (NewMadeleine packet wrappers,
native-stack protocol messages), not MPI messages: one MPI message may
map to several frames (rendezvous, multirail striping) or share a frame
with others (aggregation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

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
    frame_id: int = field(default_factory=lambda: next(_frame_ids))


class NIC:
    """One rail endpoint on a node.

    The transmit engine is a FIFO: injections serialize.  Each delivered
    frame goes to exactly one consumer: the ``rx_notify`` callback when
    one is set (progress engines react without busy polling), else the
    ``rx_queue``, a :class:`~repro.simulator.resources.Channel` that a
    polling loop reads (standalone ``nm_sr``).  A notified frame is not
    queued, so a NIC keeps no frame after its handler is done with it.
    """

    def __init__(self, sim: Simulator, node_id: int, params: NICParams, fabric: "Fabric"):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.fabric = fabric
        self._rx_queue = None
        #: called as ``rx_notify(frame)`` at delivery time; None queues
        #: the frame on ``rx_queue`` instead
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

    @property
    def tx_busy(self) -> bool:
        """True while the transmit engine has queued/ongoing injections."""
        return self._tx_free_at > self.sim.now

    def tx_idle_at(self) -> float:
        """Earliest time a new injection could start."""
        return max(self.sim.now, self._tx_free_at)

    # -- receiving -----------------------------------------------------
    @property
    def rx_queue(self) -> Channel:
        """Frames delivered while no ``rx_notify`` is set, built on first
        use: a notified NIC (every MPI run's) never needs one."""
        if self._rx_queue is None:
            self._rx_queue = Channel(self.sim)
        return self._rx_queue

    def _deliver(self, frame: Frame) -> None:
        self.rx_frames += 1
        self.rx_bytes += frame.size
        if self.sim.tracing:
            self.sim.record(
                "nic.rx", rail=self.params.name, node=self.node_id,
                src=frame.src, size=frame.size, kind=frame.kind,
                frame=frame.frame_id,
            )
        if self.rx_notify is not None:
            self.rx_notify(frame)
        else:
            self.rx_queue.put(frame)


class Fabric:
    """One rail: a set of NICs joined by a full-bisection switch."""

    def __init__(self, sim: Simulator, params: NICParams):
        self.sim = sim
        self.params = params
        self.name = params.name
        self._nics: Dict[int, NIC] = {}
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
        dst._deliver(frame)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nics
