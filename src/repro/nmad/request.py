"""NewMadeleine request objects.

Requests are opaque, allocated per submitted operation, and — exactly
like the real library (paper Section 2.2.1) — **cannot be cancelled**:
a posted request must eventually be matched and completed.  This
constraint is what forces the ANY_SOURCE machinery of Section 3.2 in
the MPICH2 layer.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.simulator import Event, Simulator
from repro.simulator.events import _PENDING

_req_ids = itertools.count()


class NmadRequest(Event):
    """One pending send or receive operation inside NewMadeleine.

    The request is its own completion event; it succeeds with no value,
    so it holds no reference to itself.  ``on_complete`` is one-shot:
    it is cleared before it is called, so a callback that closes over
    the owner of this request (CH3's ``req.nmad_req = nm``) forms no
    reference cycle.
    """

    __slots__ = (
        "req_id", "kind", "peer", "tag", "size", "data",
        "on_complete", "seq",
    )

    def __init__(self, sim: Simulator, kind: str, peer: int, tag: Any,
                 size: int, data: Any = None):
        if kind not in ("send", "recv"):
            raise ValueError(f"bad request kind {kind!r}")
        Event.__init__(self, sim)
        self.req_id = next(_req_ids)
        self.kind = kind
        self.peer = peer              # peer process rank (the "gate")
        self.tag = tag
        self.size = size
        self.data = data
        self.on_complete: Optional[Callable[["NmadRequest"], None]] = None
        self.seq: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self._state != _PENDING

    def cancel(self) -> None:
        """NewMadeleine does not support cancellation (Section 2.2.1)."""
        raise NotImplementedError(
            "NewMadeleine does not support the cancellation of a posted request"
        )

    def _finish(self, sim: Simulator, data: Any = None, size: Optional[int] = None) -> None:
        if self._state != _PENDING:
            raise RuntimeError(f"request {self.req_id} completed twice")
        if data is not None:
            self.data = data
        if size is not None:
            self.size = size
        self.succeed()
        on_complete = self.on_complete
        if on_complete is not None:
            self.on_complete = None
            on_complete(self)

    def __repr__(self) -> str:
        state = "done" if self.complete else "pending"
        return (f"NmadRequest(#{self.req_id} {self.kind} peer={self.peer} "
                f"tag={self.tag!r} size={self.size} {state})")
