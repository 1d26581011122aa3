"""MPI_ANY_SOURCE management for the CH3-direct path (paper Fig. 3).

NewMadeleine cannot match wildcard-source receives and cannot cancel a
posted request, so the module keeps, per MPI tag, a list containing the
pending ANY_SOURCE requests and any regular (known-source) receives
posted after them.  On every progress step the head ANY_SOURCE entry
probes NewMadeleine; when a matching message has arrived (it then sits
in NewMadeleine's buffers), a NewMadeleine request is created *a
posteriori* and completes immediately.  Regular receives queued behind
an ANY_SOURCE entry are only handed to NewMadeleine once the entry is
resolved, preserving MPI matching order.  An intra-node (shared-memory)
match simply removes the entry.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Tuple

from repro.mpich2.request import MPIRequest

_AS = "as"
_REGULAR = "regular"


class AnySourceBook:
    """The per-tag request lists of Fig. 3."""

    def __init__(self, stack):
        self.stack = stack
        self._lists: Dict[Any, Deque[Tuple[str, MPIRequest]]] = {}

    # -- bookkeeping -----------------------------------------------------
    def has_pending(self, tag: Any) -> bool:
        """True when an ANY_SOURCE entry exists for ``tag``."""
        sub = self._lists.get(tag)
        return bool(sub) and any(kind == _AS for kind, _ in sub)

    def add_any_source(self, tag: Any, req: MPIRequest) -> None:
        self._lists.setdefault(tag, deque()).append((_AS, req))

    def defer_regular(self, tag: Any, req: MPIRequest) -> None:
        """Queue a known-source receive behind pending ANY_SOURCE entries."""
        if not self.has_pending(tag):
            raise RuntimeError("defer_regular without a pending ANY_SOURCE")
        self._lists[tag].append((_REGULAR, req))

    # -- resolution --------------------------------------------------------
    def poll(self):
        """Probe NewMadeleine for every tag with pending entries."""
        for tag in list(self._lists):
            yield from self.poll_tag(tag)

    def poll_tag(self, tag: Any):
        """Advance one tag's sublist as far as possible."""
        sub = self._lists.get(tag)
        while sub:
            kind, req = sub[0]
            if kind == _REGULAR:
                # the ANY_SOURCE ahead of it was resolved: hand to nmad now
                sub.popleft()
                yield from self.stack._post_remote_recv(req)
                continue
            hit = self.stack.core.probe(("mpi", tag))
            if self.stack.sim.tracing:
                self.stack.sim.record(
                    "mpich2.anysource_scan", rank=self.stack.rank, tag=tag,
                    hit=hit is not None, pending=len(sub),
                )
            if hit is None:
                break
            src, _size = hit
            sub.popleft()
            yield from self.stack._resolve_any_source(req, src)
        if sub is not None and not sub:
            self._lists.pop(tag, None)

    def on_local_match(self, tag: Any, req: MPIRequest):
        """An intra-node message matched ``req``: drop its entry (Fig. 3).

        Generator: flushing deferred regular receives posts them to
        NewMadeleine, which costs CPU.
        """
        sub = self._lists.get(tag)
        if sub is not None:
            try:
                sub.remove((_AS, req))
            except ValueError:
                pass
        yield from self.poll_tag(tag)
