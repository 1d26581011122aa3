"""ADI3/CH3 request objects and the MPI wildcards."""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.simulator import Event, Simulator
from repro.simulator.events import _PENDING


class _Wildcard:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: match a receive against any source rank
ANY_SOURCE = _Wildcard("MPI_ANY_SOURCE")
#: match a receive against any tag
ANY_TAG = _Wildcard("MPI_ANY_TAG")

_req_ids = itertools.count()


class MPIRequest(Event):
    """One MPI communication operation tracked by the stack.

    The request is its own completion event: it succeeds, with no value,
    when the operation completes (a value of itself would make every
    request a reference cycle).  The ``nmad_req`` field is the
    request-association mechanism of paper Section 3.1.1: a pointer from
    the MPICH2 request to the corresponding NewMadeleine request.
    """

    __slots__ = (
        "req_id", "kind", "peer", "tag", "size", "data",
        "nmad_req", "status_source", "status_tag",
        "datatype", "_sync", "_waiter",
    )

    def __init__(self, sim: Simulator, kind: str, peer: Any, tag: Any,
                 size: int = 0, data: Any = None):
        if kind not in ("send", "recv"):
            raise ValueError(f"bad MPI request kind {kind!r}")
        Event.__init__(self, sim)
        self.req_id = next(_req_ids)
        self.kind = kind
        self.peer = peer
        self.tag = tag
        self.size = size
        self.data = data
        self.nmad_req: Any = None
        # resolved matching info (meaningful after completion of a recv)
        self.status_source: Optional[int] = None
        self.status_tag: Any = None
        #: layout for receive-side unpack costing (set by the MPI layer)
        self.datatype: Any = None
        #: synchronous-send flag (MPI_Ssend semantics)
        self._sync = False
        #: wake-up event of the thread parked on this request in
        #: ``BaseStack.wait`` (None = nobody parked)
        self._waiter: Optional[Event] = None

    @property
    def complete(self) -> bool:
        return self._state != _PENDING

    def _finish(self, sim: Simulator, *, data: Any = None, size: Optional[int] = None,
                source: Optional[int] = None, tag: Any = None) -> None:
        if self._state != _PENDING:
            raise RuntimeError(f"MPI request {self.req_id} completed twice")
        if data is not None:
            self.data = data
        if size is not None:
            self.size = size
        if source is not None:
            self.status_source = source
        if tag is not None:
            self.status_tag = tag
        self.succeed()
        waiter = self._waiter
        if waiter is not None and waiter._state == _PENDING:
            waiter.succeed()

    def __repr__(self) -> str:
        state = "done" if self.complete else "pending"
        return (f"MPIRequest(#{self.req_id} {self.kind} peer={self.peer!r} "
                f"tag={self.tag!r} size={self.size} {state})")
