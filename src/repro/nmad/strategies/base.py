"""Strategy base: the FIFO "default" strategy and the SendItem queue."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Optional

from repro.nmad.drivers.base import NmadDriver
from repro.nmad.packet import (
    CtsEntry,
    DataEntry,
    EagerEntry,
    PacketWrapper,
    RtsEntry,
)


def entry_summary(entry):
    """``(kind, src_rank, dst_rank, tag, seq, rdv_id)`` of a pw entry.

    The tuple is what ``strategy.pw_built`` trace records carry so the
    observability layer can correlate packet wrappers back to messages.
    """
    if isinstance(entry, EagerEntry):
        return ("eager", entry.src_rank, entry.dst_rank, entry.tag,
                entry.seq, 0)
    if isinstance(entry, RtsEntry):
        return ("rts", entry.src_rank, entry.dst_rank, entry.tag,
                entry.seq, entry.rdv_id)
    if isinstance(entry, CtsEntry):
        return ("cts", entry.src_rank, entry.dst_rank, None, 0, entry.rdv_id)
    return ("data", entry.src_rank, entry.dst_rank, None, 0, entry.rdv_id)


@dataclass
class SendItem:
    """One pending unit of outgoing work awaiting NIC submission."""

    kind: str          # "eager" | "rts" | "cts" | "data"
    dst_rank: int
    dst_node: int
    size: int          # payload bytes ("data"/"eager"); 0 for control
    src_rank: int
    tag: Any = None
    seq: int = 0
    rdv_id: int = 0
    data: Any = None
    req: Any = None    # originating NmadRequest for eager sends


class DefaultStrategy:
    """FIFO submission: one send item per packet wrapper, no merging.

    Subclasses override :meth:`_build_pw` (aggregation) and
    :meth:`_pump_driver` / :meth:`_eligible` (multirail placement).
    """

    name = "default"

    def __init__(self, core):
        self.core = core
        self.queue: Deque[SendItem] = deque()

    # -- feeding ---------------------------------------------------------
    def push(self, item: SendItem, priority: bool = False,
             pump: bool = True) -> None:
        """Queue an item; control acks use ``priority`` to jump the line.

        ``pump=False`` defers NIC submission to the next progress point
        — how a library without a progress thread behaves when the
        application is about to leave for a compute phase (Fig. 7).
        """
        if priority:
            self.queue.appendleft(item)
        else:
            self.queue.append(item)
        if self.core.sim.tracing:
            self.core.sim.record(
                "strategy.push", strategy=self.name, kind=item.kind,
                src=item.src_rank, dst=item.dst_rank, size=item.size,
                rdv=item.rdv_id, priority=priority, pending=len(self.queue),
            )
        if pump:
            self.pump()

    def pending(self) -> int:
        return len(self.queue)

    # -- draining ----------------------------------------------------------
    def pump(self) -> None:
        """Feed idle drivers until windows are full or the queue drains."""
        progressed = True
        while progressed and self.queue:
            progressed = False
            for driver in self.core.preferred_drivers():
                if not self.queue:
                    break
                if not driver.window_free():
                    continue
                if not self._eligible(self.queue[0], driver):
                    continue
                if self._pump_driver(driver):
                    progressed = True

    def _eligible(self, item: SendItem, driver: NmadDriver) -> bool:
        """May the queue head go out on this driver?  Default: anywhere."""
        return True

    def _pump_driver(self, driver: NmadDriver) -> bool:
        """Build and post one packet wrapper on ``driver``."""
        pw = self._build_pw(driver)
        if pw is None:
            return False
        if self.core.sim.tracing:
            self.core.sim.record(
                "strategy.pw_built", strategy=self.name, rail=driver.name,
                node=self.core.node_id, pw=pw.pw_id,
                entries=len(pw.entries), wire_size=pw.wire_size,
                msgs=[entry_summary(e) for e in pw.entries],
            )
        driver.post(pw)
        return True

    def _build_pw(self, driver: NmadDriver) -> Optional[PacketWrapper]:
        if not self.queue:
            return None
        return self._new_pw(self.queue.popleft())

    # -- helpers -----------------------------------------------------------
    def _new_pw(self, item: SendItem) -> PacketWrapper:
        """A packet wrapper holding ``item``'s entry."""
        return PacketWrapper(dst_node=item.dst_node, src_node=self.core.node_id,
                             entries=[self._to_entry(item)])

    @staticmethod
    def _to_entry(item: SendItem):
        if item.kind == "eager":
            return EagerEntry(item.src_rank, item.dst_rank, item.tag,
                              item.seq, item.size, item.data, req=item.req)
        if item.kind == "rts":
            return RtsEntry(item.src_rank, item.dst_rank, item.tag,
                            item.seq, item.size, item.rdv_id)
        if item.kind == "cts":
            return CtsEntry(item.src_rank, item.dst_rank, item.rdv_id)
        if item.kind == "data":
            return DataEntry(item.src_rank, item.dst_rank, item.rdv_id,
                             item.size, item.data)
        raise ValueError(f"unknown send item kind {item.kind!r}")
