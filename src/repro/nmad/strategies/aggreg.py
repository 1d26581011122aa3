"""Aggregation strategy: coalesce pending small sends into one packet.

While the NIC is busy, eager sends to the same destination accumulate;
when window space frees, they travel in a single packet wrapper,
amortizing the per-message NIC gap and wire latency over several MPI
messages.  Control entries (RTS/CTS) ride along for free.
"""

from __future__ import annotations

from typing import Optional

from repro.nmad.drivers.base import NmadDriver
from repro.nmad.packet import PacketWrapper, entry_wire_size
from repro.nmad.strategies.base import DefaultStrategy


class AggregStrategy(DefaultStrategy):
    """FIFO with same-destination merging up to ``core.costs.max_pw_size``."""

    name = "aggreg"

    #: item kinds that may share a packet wrapper
    _MERGEABLE = ("eager", "rts", "cts")

    def _build_pw(self, driver: NmadDriver) -> Optional[PacketWrapper]:
        if not self.queue:
            return None
        head = self.queue.popleft()
        pw = self._new_pw(head)
        if head.kind == "data":
            return pw  # rendezvous payloads never aggregate
        max_pw = self.core.costs.max_pw_size
        while self.queue:
            nxt = self.queue[0]
            if nxt.kind not in self._MERGEABLE:
                break
            if nxt.dst_rank != head.dst_rank:
                break
            entry = self._to_entry(nxt)
            if pw.wire_size + entry_wire_size(entry) > max_pw:
                break
            self.queue.popleft()
            pw.append(entry)
        return pw
