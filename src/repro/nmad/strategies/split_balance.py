"""Multirail strategy: fastest rail for small, bandwidth-split for large.

Implements the behaviour the paper verifies in Fig. 5: small messages
(and all control traffic) take the lowest-latency rail; rendezvous
payloads at or above ``core.costs.split_threshold`` are striped across
every rail with free window space, each rail receiving a share
proportional to its sampled bandwidth, so the aggregate bandwidth
approaches the sum of the rails.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.nmad.drivers.base import NmadDriver
from repro.nmad.packet import DataEntry, PacketWrapper
from repro.nmad.strategies.aggreg import AggregStrategy
from repro.nmad.strategies.base import SendItem, entry_summary


class SplitBalanceStrategy(AggregStrategy):
    """Aggregation on the fastest rail + adaptive striping of payloads."""

    name = "split_balance"

    def _eligible(self, item: SendItem, driver: NmadDriver) -> bool:
        if item.kind == "data" and item.size >= self.core.costs.split_threshold:
            return True  # any driver may trigger a split
        # everything else sticks to the lowest-latency rail
        return driver is self.core.fastest_driver()

    def _pump_driver(self, driver: NmadDriver) -> bool:
        head = self.queue[0]
        if head.kind == "data" and head.size >= self.core.costs.split_threshold:
            return self._pump_split(head)
        return super()._pump_driver(driver)

    def _shares(self, free: List[NmadDriver],
                item: SendItem) -> List[Tuple[NmadDriver, int]]:
        """How ``item.size`` bytes divide over the free rails.

        Subclasses override this to fold live feedback (observed link
        contention) into the static sampled profile.
        """
        return self.core.sampler.split(free, item.size)

    def _pump_split(self, item: SendItem) -> bool:
        free = [d for d in self.core.preferred_drivers() if d.window_free()]
        if not free:
            return False
        self.queue.popleft()
        shares = self._shares(free, item)
        if self.core.sim.tracing:
            self.core.sim.record(
                "strategy.split", strategy=self.name, rdv=item.rdv_id,
                src=item.src_rank, dst=item.dst_rank, size=item.size,
                shares=[(drv.name, chunk) for drv, chunk in shares],
            )
        # the message payload object rides on the largest chunk
        carrier = max(range(len(shares)), key=lambda i: shares[i][1])
        for i, (drv, chunk) in enumerate(shares):
            pw = PacketWrapper(dst_node=item.dst_node, src_node=self.core.node_id)
            pw.append(DataEntry(
                src_rank=item.src_rank,
                dst_rank=item.dst_rank,
                rdv_id=item.rdv_id,
                size=chunk,
                data=item.data if i == carrier else None,
            ))
            if self.core.sim.tracing:
                self.core.sim.record(
                    "strategy.pw_built", strategy=self.name, rail=drv.name,
                    node=self.core.node_id, pw=pw.pw_id, entries=1,
                    wire_size=pw.wire_size,
                    msgs=[entry_summary(pw.entries[0])],
                )
            drv.post(pw)
        return True
