"""The ``nm_sr`` send/receive interface (paper Section 2.2.1).

A thin, paper-faithful facade over :class:`~repro.nmad.core.NmadCore`
for using NewMadeleine *standalone* (without the MPICH2 stack), as the
raw-library benchmarks in the paper do.  It spawns one internal
progress pump per rail, mirroring the library's own progress engine.

Note: standalone use assumes one process per node (the pumps consume
the node NIC receive queues directly).  Inside the MPICH2 stack, frame
dispatch is handled by the runtime instead.
"""

from __future__ import annotations

from typing import Any

from repro.nmad.core import NmadCore
from repro.nmad.request import NmadRequest
from repro.simulator import Simulator

__all__ = ["SendRecvInterface"]


class SendRecvInterface:
    """``nm_sr_*`` flavoured API over a NewMadeleine core."""

    def __init__(self, sim: Simulator, core: NmadCore):
        self.sim = sim
        self.core = core
        for driver in core.drivers:
            sim.spawn(self._pump(driver), name=f"nm-pump-{driver.name}")

    def _pump(self, driver):
        while True:
            frame = yield driver.nic.rx_queue.get()
            if frame.kind == "nmad":
                yield from self.core.handle_pw(frame.payload, frame.rail)

    # -- paper-named entry points ---------------------------------------
    def nm_sr_isend(self, dest: int, tag: Any, data: Any, size: int):
        """Generator; returns the request (cf. ``nm_sr_isend`` prototype)."""
        req = yield from self.core.isend(dest, tag, size, data)
        # standalone use: the library's own progress engine pumps here
        self.core.strategy.pump()
        return req

    def nm_sr_irecv(self, source: int, tag: Any, size: int = 0):
        req = yield from self.core.irecv(source, tag, size)
        return req

    def nm_sr_rwait(self, req: NmadRequest):
        """Generator: block until the request completes."""
        if not req.complete:
            yield req

    def nm_sr_rtest(self, req: NmadRequest) -> bool:
        return req.complete
