"""Generic NewMadeleine rail driver."""

from __future__ import annotations

from typing import Callable, Optional

from repro.hardware.nic import NIC, Frame
from repro.nmad.packet import PacketWrapper


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

    @property
    def name(self) -> str:
        return self.nic.params.name

    def window_free(self) -> bool:
        return self.inflight < self.window

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
        self.inflight += 1
        self.pws_posted += 1
        frame = Frame(
            src=pw.src_node, dst=pw.dst_node, size=pw.wire_size,
            kind="nmad", payload=pw,
        )
        evt = self.nic.post_send(frame)
        evt.add_done_callback(lambda _e: self._injected(pw))

    def _injected(self, pw: PacketWrapper) -> None:
        # injection completions fire from the NIC's timeline; they touch
        # the window under the node's progress lock (a region the race
        # detector installs)
        self.inflight -= 1
        if self.on_injected is not None:
            self.on_injected(pw, self)

    def __repr__(self) -> str:
        return f"NmadDriver({self.name}, window={self.window}, inflight={self.inflight})"
