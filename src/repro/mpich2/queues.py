"""MPICH2's posted-receive and unexpected-message queues.

"This pair of queues forms the core of the message passing management
in MPICH2" (paper Section 3.1.1).  Matching is first-posted /
first-arrived with MPI wildcard semantics (ANY_SOURCE, ANY_TAG).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.mpich2.request import ANY_SOURCE, ANY_TAG, MPIRequest


@dataclass
class Envelope:
    """Matching metadata (plus payload) of an arrived message."""

    src: int
    tag: Any
    size: int
    data: Any = None
    seq: int = 0
    arrival: float = 0.0
    #: opaque channel info (e.g. rendezvous state for large messages)
    proto: Any = None
    #: sender request to complete at match time (synchronous sends)
    sync_req: Any = None


class ContextAnyTag:
    """ANY_TAG scoped to one communicator context.

    Matches any message whose (context, tag) pair carries the same
    context — MPI_ANY_TAG semantics that cannot leak across
    communicators.
    """

    __slots__ = ("context",)

    def __init__(self, context: Any):
        self.context = context

    def __repr__(self) -> str:
        return f"ContextAnyTag({self.context!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ContextAnyTag) and other.context == self.context

    def __hash__(self) -> int:
        return hash(("ContextAnyTag", self.context))


def _tags_match(posted_tag: Any, msg_tag: Any) -> bool:
    if posted_tag is ANY_TAG:
        return True
    if isinstance(posted_tag, ContextAnyTag):
        return (isinstance(msg_tag, tuple) and len(msg_tag) == 2
                and msg_tag[0] == posted_tag.context)
    return posted_tag == msg_tag


def _sources_match(posted_src: Any, msg_src: int) -> bool:
    return posted_src is ANY_SOURCE or posted_src == msg_src


class PostedQueue:
    """FIFO of posted receive requests."""

    def __init__(self):
        self._reqs: List[MPIRequest] = []

    def __len__(self) -> int:
        return len(self._reqs)

    def post(self, req: MPIRequest) -> None:
        if req.kind != "recv":
            raise ValueError("only receive requests are posted")
        self._reqs.append(req)

    def match(self, src: int, tag: Any) -> Optional[MPIRequest]:
        """Pop the first posted request matching an arrived (src, tag)."""
        for i, req in enumerate(self._reqs):
            if _sources_match(req.peer, src) and _tags_match(req.tag, tag):
                return self._reqs.pop(i)
        return None

    def remove(self, req: MPIRequest) -> bool:
        """Withdraw a specific request (ANY_SOURCE resolution path)."""
        try:
            self._reqs.remove(req)
            return True
        except ValueError:
            return False

    def __iter__(self):
        return iter(self._reqs)


class UnexpectedQueue:
    """FIFO of arrived-but-unmatched message envelopes."""

    def __init__(self):
        self._envs: List[Envelope] = []

    def __len__(self) -> int:
        return len(self._envs)

    def add(self, env: Envelope) -> None:
        self._envs.append(env)

    def match(self, src: Any, tag: Any) -> Optional[Envelope]:
        """Pop the first envelope a posted (src, tag) would match."""
        for i, env in enumerate(self._envs):
            if _sources_match(src, env.src) and _tags_match(tag, env.tag):
                return self._envs.pop(i)
        return None

    def __iter__(self):
        return iter(self._envs)
