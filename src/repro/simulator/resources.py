"""Blocking resources built on events: semaphores and channels.

These model the synchronization objects the paper's stack needs:
semaphore-style completion waits (PIOMan replaces busy-wait loops with
semaphores, Section 3.3.2) and FIFO message channels (Nemesis queues,
NIC request queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.simulator.errors import SimulationError
from repro.simulator.events import Event

__all__ = ["Semaphore", "Channel"]


class Semaphore:
    """Counting semaphore with FIFO wake-up order.

    ``acquire()`` returns an :class:`Event` that succeeds once a unit is
    granted — yield it to block.
    """

    def __init__(self, sim, value: int = 0):
        if value < 0:
            raise SimulationError(f"semaphore initial value must be >= 0, got {value}")
        self.sim = sim
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        """Units currently available."""
        return self._value

    @property
    def waiting(self) -> int:
        """Number of blocked acquirers."""
        return len(self._waiters)

    def acquire(self) -> Event:
        evt = Event(self.sim)
        if self._value > 0:
            self._value -= 1
            monitor = self.sim.monitor
            if monitor is not None:
                monitor.sync_acquire(("sem", id(self)))
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self._value > 0:
            self._value -= 1
            monitor = self.sim.monitor
            if monitor is not None:
                monitor.sync_acquire(("sem", id(self)))
            return True
        return False

    def release(self, units: int = 1) -> None:
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.sync_release(("sem", id(self)))
        for _ in range(units):
            if self._waiters:
                self._waiters.popleft().succeed()
            else:
                self._value += 1


class Channel:
    """Unbounded FIFO channel of items.

    ``get()`` returns an event carrying the next item; getters are served
    in FIFO order.  This is the shape of a NIC receive queue read by a
    polling loop (the standalone ``nm_sr`` pumps).  An item stays queued
    until a getter takes it: a channel that nobody reads keeps alive
    everything put into it.
    """

    def __init__(self, sim):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.sync_release(("chan", id(self)))
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        evt = Event(self.sim)
        if self._items:
            self._observe()
            evt.succeed(self._items.popleft())
        else:
            self._getters.append(evt)
        return evt

    def _observe(self) -> None:
        """Join the putters' published clock into the current context."""
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.sync_acquire(("chan", id(self)))
