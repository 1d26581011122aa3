"""Shared-memory queue model of the Nemesis channel.

Cost structure: the sender dequeues a free cell, copies the message in
(one memcpy), and enqueues it on the receiver's single receive queue;
the receiver polls that queue and copies the message out.  Messages
larger than a cell stream through multiple cells, paying a per-cell
overhead.  The model reproduces the two observable properties the
paper relies on:

* very low small-message latency (~0.2 us one-way, Fig. 6a);
* double-copy bandwidth for large messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.hardware.params import MemParams
from repro.mpich2.nemesis.queue import CellPool
from repro.simulator import Simulator


@dataclass(frozen=True)
class ShmCosts:
    """Nemesis shared-memory queue constants (calibrated to Fig. 6a)."""

    #: fixed-size cell payload capacity, bytes
    cell_size: int = 64 * 1024
    #: cells in each process's free queue (finite: senders block when
    #: the pool is exhausted — Nemesis flow control)
    n_cells: int = 64
    #: cost of one cell enqueue (lock-free CAS + bookkeeping), s
    enqueue_cost: float = 0.04e-6
    #: store-buffer/cache-coherence delay before the receiver can see a cell, s
    delivery_latency: float = 0.05e-6
    #: receiver-side dequeue + poll cost per message, s
    dequeue_cost: float = 0.05e-6


@dataclass
class ShmMessage:
    """One message traversing the shared-memory queues."""

    src_rank: int
    dst_rank: int
    env: Any          # upper-layer envelope (matching info + payload)
    size: int
    #: cells this message occupies until the receiver copies it out
    cells: Any = None


class NemesisShm:
    """Per-node shared-memory queue fabric.

    Stacks register a delivery callback per rank; ``send`` charges the
    sender-side costs on the calling thread and schedules delivery into
    the destination stack's progress engine.
    """

    def __init__(self, sim: Simulator, mem: MemParams, costs: ShmCosts = ShmCosts()):
        self.sim = sim
        self.mem = mem
        self.costs = costs
        self._receivers: Dict[int, Callable[[ShmMessage], None]] = {}
        self._pools: Dict[int, CellPool] = {}
        self.messages = 0

    def register(self, rank: int, on_message: Callable[[ShmMessage], None]) -> None:
        if rank in self._receivers:
            raise ValueError(f"rank {rank} already registered on this node's shm")
        self._receivers[rank] = on_message
        self._pools[rank] = CellPool(self.sim, n_cells=self.costs.n_cells,
                                     cell_size=self.costs.cell_size)

    def pool(self, rank: int) -> CellPool:
        """The free-cell queue owned by ``rank``."""
        return self._pools[rank]

    def cells_for(self, size: int) -> int:
        return max(1, math.ceil(size / self.costs.cell_size))

    def send(self, src_rank: int, dst_rank: int, env: Any, size: int):
        """Generator: dequeue free cells (may block when the pool is
        exhausted — Nemesis flow control), copy in, enqueue for delivery."""
        if dst_rank not in self._receivers:
            raise KeyError(f"rank {dst_rank} is not on this node")
        cells = yield from self._pools[src_rank].acquire(size)
        ncells = self.cells_for(size)
        copy_in = self.mem.copy_time(size) + ncells * self.costs.enqueue_cost
        if self.sim.tracing:
            self.sim.record("mpich2.shm_send", src=src_rank, dst=dst_rank,
                            size=size, cells=ncells, dur=copy_in)
        yield copy_in
        self.messages += 1
        msg = ShmMessage(src_rank, dst_rank, env, size, cells=cells)
        self.sim.schedule(self.costs.delivery_latency, self._receivers[dst_rank], msg)

    def recv_cost(self, size: int) -> float:
        """Receiver-side cost to dequeue and copy out one message."""
        ncells = self.cells_for(size)
        return ncells * self.costs.dequeue_cost + self.mem.copy_time(size)
