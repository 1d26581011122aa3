"""Size/p-aware collective algorithm selection.

:data:`TABLE` maps each collective to an ordered rule list; the first
rule matching ``(p, size)`` names the algorithm, in the style of
MPICH's ``MPIR_*_intra_auto`` cutoff tables.  :func:`choose` reads it
and :mod:`repro.mpi.collectives` consults it, through :func:`resolve`,
on every dispatch; :func:`forced` overrides it for one collective.

Selection must be identical on every rank of a collective — it depends
only on ``(collective, p, size)``, never on the local payload.  The
payload enters only afterwards: if the chosen algorithm is segmented
(``needs_vector``) and the payload is neither ``None`` nor a ``list``,
:func:`resolve` retreats to the collective's registered fallback.
MPI programs pass the same payload *kind* on every rank (all-None for
timing skeletons, all-list for data runs), so the retreat is
rank-uniform too; bcast — whose payload genuinely differs between root
and non-roots — only registers payload-agnostic algorithms.

The table is deliberately conservative: it keeps the classic (seed)
algorithm everywhere the committed goldens tread, and switches to the
large-message algorithms only in regions the seed experiments never
exercise (allreduce >= 8 KiB — the largest application allreduce is
NAS IS at 4 KiB — and bcast >= 32 KiB, which no workload calls).  The
``ext_collectives`` experiment measures every algorithm across a
(p x size) grid and prints each cell's winner beside this table's pick.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.coll import registry
from repro.coll.registry import Algorithm


@dataclass(frozen=True)
class Rule:
    """One selection-table entry: algorithm + its (p, size) region.

    ``max_size``/``max_p`` are exclusive upper bounds; ``None`` means
    unbounded.  There are no lower bounds: rules are tried in order, so
    an earlier rule already takes the calls below a later one's region.
    ``pow2`` restricts the rule to power-of-two (True) or
    non-power-of-two (False) process counts.
    """

    algorithm: str
    max_size: Optional[int] = None
    max_p: Optional[int] = None
    pow2: Optional[bool] = None

    def matches(self, p: int, size: int) -> bool:
        if self.max_size is not None and size >= self.max_size:
            return False
        if self.max_p is not None and p >= self.max_p:
            return False
        if self.pow2 is not None and (p & (p - 1) == 0) != self.pow2:
            return False
        return True


#: the MPICH-style cutoff table (see module docstring); the last rule
#: of every collective is a catch-all, so every call has an algorithm
TABLE: Dict[str, Tuple[Rule, ...]] = {
    "barrier": (Rule("dissemination"),),
    "bcast": (
        Rule("binomial", max_size=32 * 1024),
        Rule("binomial", max_p=8, max_size=128 * 1024),
        Rule("scatter_allgather"),
    ),
    "reduce": (Rule("binomial"),),
    "allreduce": (
        Rule("recursive_doubling", max_size=8 * 1024),
        Rule("rabenseifner", pow2=True),
        Rule("ring"),
    ),
    "allgather": (Rule("ring"),),
    "alltoall": (Rule("pairwise"),),
}

_forced: Dict[str, str] = {}


def choose(collective: str, p: int, size: int) -> str:
    """The table's algorithm name for a ``(collective, p, size)`` call
    (a ``LookupError`` when no rule matches or the collective is unknown).
    """
    for rule in TABLE[collective]:
        if rule.matches(p, size):
            return rule.algorithm
    raise LookupError(f"no selection rule matches {collective} at "
                      f"p={p}, size={size}")


def _ensure_registered() -> None:
    """Make sure both algorithm sets are in the registry.

    The classic small-message algorithms register at the bottom of
    :mod:`repro.mpi.collectives`, which imports this module — so the
    import here must be lazy.
    """
    import repro.mpi.collectives  # noqa: F401  (registers on import)


@contextmanager
def forced(collective: str, algorithm: str) -> Iterator[None]:
    """Force one collective onto one algorithm (benchmarks / tests).

    Forcing bypasses the table but not the payload-compatibility
    fallback; nesting on the same collective restores the outer force.
    """
    _ensure_registered()
    registry.get(collective, algorithm)  # fail fast on unknown names
    prev = _forced.get(collective)
    _forced[collective] = algorithm
    try:
        yield
    finally:
        if prev is None:
            del _forced[collective]
        else:
            _forced[collective] = prev


def _payload_ok(algo: Algorithm, payload: Any) -> bool:
    return not algo.needs_vector or payload is None or isinstance(payload, list)


def resolve(collective: str, p: int, size: int,
            payload: Any = None) -> Algorithm:
    """The algorithm to run for this call (force > table > fallback)."""
    name = _forced.get(collective)
    if name is None:
        name = choose(collective, p, size)
    algo = registry.get(collective, name)
    if not _payload_ok(algo, payload):
        algo = registry.fallback_of(collective)
    return algo
