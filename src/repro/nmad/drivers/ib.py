"""InfiniBand (Verbs) driver flavour.

Rendezvous payloads move by RDMA write: the receiving CPU pays no
per-chunk cost, only the final completion.  Memory must be registered
on both sides — NewMadeleine registers on the fly, without a cache
(paper Section 4.1.1).

:class:`RegistrationCache` adds the pin-down cache of Liu et al.
(cs/0310059) as an opt-in (``StackSpec.ib_reg_cache`` capacity in
bytes): registered regions stay pinned and are reused LRU until the
capacity forces an eviction, whose unpinning cost is also charged.
The comparators (MVAPICH2, Open MPI) already model such a cache; with
this knob nmad can too, making cached registration both a speed lever
and a crossover axis against the 2009 on-the-fly design.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.hardware.nic import NIC
from repro.hardware.params import MemParams
from repro.nmad.drivers.base import NmadDriver


class RegistrationCache:
    """LRU pin-down cache over registered memory regions.

    Keys follow the :class:`~repro.hardware.memory.MemoryRegistrar`
    convention ``(buffer_key, size)``; the cache holds at most
    ``capacity`` pinned bytes.  ``lookup`` returns the registration
    cost to charge plus a stats snapshot for trace emission:

    * hit — the region is pinned; charge ``reg_cache_hit`` only;
    * miss — charge the full pin cost (``reg_base + size *
      reg_per_byte``) plus ``dereg_base`` for every LRU region evicted
      to make room.  A region larger than the whole cache is
      registered uncached (pinned and immediately forgotten).
    """

    def __init__(self, params: MemParams, capacity: int):
        if capacity <= 0:
            raise ValueError("registration cache capacity must be > 0 bytes")
        self.params = params
        self.capacity = capacity
        self._regions: "OrderedDict[Tuple[object, int], int]" = OrderedDict()
        self.pinned_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.evicted_bytes = 0

    def __contains__(self, key: Tuple[object, int]) -> bool:
        return key in self._regions

    def __len__(self) -> int:
        return len(self._regions)

    def lookup(self, buffer_key: object,
               size: int) -> Tuple[float, Dict[str, int]]:
        """Registration cost for one transfer of ``size`` bytes."""
        key = (buffer_key, size)
        if key in self._regions:
            self._regions.move_to_end(key)
            self.hits += 1
            return self.params.reg_cache_hit, self._info(hit=True, evicted=0)
        self.misses += 1
        cost = self.params.reg_base + size * self.params.reg_per_byte
        evicted = 0
        if size <= self.capacity:
            while self._regions and self.pinned_bytes + size > self.capacity:
                _, old_size = self._regions.popitem(last=False)
                self.pinned_bytes -= old_size
                self.evictions += 1
                self.evicted_bytes += old_size
                evicted += old_size
                cost += self.params.dereg_base
            self._regions[key] = size
            self.pinned_bytes += size
        return cost, self._info(hit=False, evicted=evicted)

    def _info(self, hit: bool, evicted: int) -> Dict[str, int]:
        return {"hit": hit, "evicted": evicted,
                "pinned": self.pinned_bytes, "regions": len(self._regions)}


def make_ib_driver(nic: NIC, window: int = 2,
                   reg_cache: Optional[RegistrationCache] = None) -> NmadDriver:
    """Driver for a ConnectX-style Verbs NIC."""
    driver = NmadDriver(nic, window=window, rdma=True)
    driver.reg_cache = reg_cache
    return driver
