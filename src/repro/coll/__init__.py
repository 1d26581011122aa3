"""Collective algorithm selection (the ``repro.coll`` package).

* :mod:`repro.coll.registry` — the named-algorithm registry both
  :mod:`repro.mpi.collectives` (classic small-message algorithms) and
  :mod:`repro.coll.algorithms` (large-message algorithms) feed;
* :mod:`repro.coll.algorithms` — ring/Rabenseifner allreduce,
  scatter-allgather bcast, Bruck allgather/alltoall, tree barrier;
* :mod:`repro.coll.selector` — the fixed size/p cutoff table consulted
  on every dispatched collective, and the ``forced`` override.

The ``ext_collectives`` experiment measures where each algorithm wins.
See ``docs/COLLECTIVES.md``.
"""

from repro.coll import algorithms as _algorithms  # registers on import
from repro.coll.registry import (COLLECTIVES, Algorithm, fallback_of, get,
                                 names_of)
from repro.coll.selector import TABLE, Rule, choose, forced, resolve

del _algorithms

__all__ = [
    "COLLECTIVES", "Algorithm", "fallback_of", "get", "names_of", "TABLE",
    "Rule", "choose", "forced", "resolve",
]
