"""The collective-algorithm registry.

Every collective with more than one implementation is dispatched by
name through this registry: :mod:`repro.mpi.collectives` registers the
classic small-message algorithms and :mod:`repro.coll.algorithms`
registers the large-message ones.  The registry is pure bookkeeping —
it imports nothing from the MPI layer, so both sides can depend on it
without a cycle.

An algorithm entry records whether the implementation is *segmented*
(``needs_vector``): segmented algorithms split the payload into blocks
and therefore require the data argument to be ``None`` (timing-only
runs) or a ``list`` (treated as an MPI-style element vector, with the
reduction op applied blockwise).  The dispatcher falls back to the
collective's ``fallback`` algorithm when the payload is incompatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: the collectives that go through selector dispatch, in display order
COLLECTIVES: Tuple[str, ...] = (
    "barrier", "bcast", "reduce", "allreduce", "allgather", "alltoall")


@dataclass(frozen=True)
class Algorithm:
    """One registered implementation of a collective."""

    collective: str
    name: str
    fn: Callable
    #: True when the payload must be None or a list (segmented algorithm)
    needs_vector: bool = False


_REGISTRY: Dict[str, Dict[str, Algorithm]] = {c: {} for c in COLLECTIVES}
#: per-collective algorithm used when the selected one rejects the payload
_FALLBACK: Dict[str, str] = {}


def register(collective: str, name: str, fn: Callable, *,
             needs_vector: bool = False,
             fallback: bool = False) -> Algorithm:
    """Register ``fn`` as algorithm ``name`` of ``collective``.

    ``fallback=True`` marks it as the payload-compatible default the
    dispatcher retreats to (must not itself need a vector payload).
    """
    if collective not in _REGISTRY:
        raise ValueError(f"unknown collective {collective!r}; "
                         f"known: {', '.join(COLLECTIVES)}")
    if name in _REGISTRY[collective]:
        raise ValueError(f"algorithm {collective}/{name} already registered")
    algo = Algorithm(collective, name, fn, needs_vector=needs_vector)
    _REGISTRY[collective][name] = algo
    if fallback:
        if needs_vector:
            raise ValueError(f"fallback algorithm {collective}/{name} "
                             "cannot itself need a vector payload")
        _FALLBACK[collective] = name
    return algo


def get(collective: str, name: str) -> Algorithm:
    """Look up one algorithm; raises with the known list on a miss."""
    try:
        return _REGISTRY[collective][name]
    except KeyError:
        known = ", ".join(names_of(collective)) or "<none>"
        raise KeyError(f"no algorithm {name!r} for {collective!r} "
                       f"(registered: {known})") from None


def fallback_of(collective: str) -> Algorithm:
    """The payload-compatible fallback algorithm of a collective."""
    name = _FALLBACK.get(collective)
    if name is None:
        raise KeyError(f"collective {collective!r} has no fallback "
                       "algorithm registered")
    return _REGISTRY[collective][name]


def names_of(collective: str) -> List[str]:
    """Registered algorithm names of a collective, registration order."""
    return list(_REGISTRY.get(collective, {}))

