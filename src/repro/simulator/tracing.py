"""Structured trace recording for simulations.

Tracing is opt-in: construct a :class:`Trace` and pass it to the
:class:`~repro.simulator.engine.Simulator`.  Subsystems then emit
records through ``sim.record(category, **data)``.  Records are cheap
named tuples; filtering helpers make assertions in tests readable.

Hot call sites guard on the simulator's truthy ``sim.tracing`` flag so
that a disabled trace costs exactly one attribute check (no kwargs
dict is built).

Category names follow the ``<layer>.<event>`` taxonomy documented in
:mod:`repro.observability.taxonomy` (and ``docs/OBSERVABILITY.md``):
the prefix before the first dot names the emitting layer (``nic``,
``nmad``, ``strategy``, ``pioman``, ``mpich2``).

Live consumers (e.g. the metrics registry of
:mod:`repro.observability.metrics` and the span profiler of
:mod:`repro.observability.profile`) attach through
:meth:`Trace.subscribe` and see every admitted record as it is
appended — or, with ``categories=``, only the records of those
categories.  A subscriber that raises is detached (and the error kept
in :attr:`Trace.subscriber_errors`) instead of poisoning every
subsequent record — except for a
:class:`~repro.simulator.errors.SimulationError` (e.g. a subscriber
re-entering ``Simulator.run()``), which propagates out of the run as
it does from an event's done-callback.

Every sink admits records through one path, :meth:`Trace.append`:
category filter, sampler, the sink's own store (a list, a ring, a
file), lifetime tallies, then the subscribers routed for the category.

Memory-bounded sinks for large runs (the ``p >= 64`` sweeps):

* :class:`RingTrace` — keeps only the last ``capacity`` records in a
  ring buffer; subscribers still stream over everything admitted, so
  live consumers lose nothing;
* :class:`JsonlTrace` — spills every record to disk as one JSON line
  (reload with :func:`load_trace_jsonl`), retaining nothing in memory;
* :class:`TraceSampler` — deterministic per-category stride and
  per-entity (rank/node) filtering, attachable to any sink.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from typing import (Any, Callable, DefaultDict, Deque, Dict, FrozenSet,
                    Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.simulator.errors import SimulationError

__all__ = ["TraceRecord", "TraceSampler", "Trace", "RingTrace", "JsonlTrace",
           "load_trace_jsonl"]


class TraceRecord(NamedTuple):
    time: float
    category: str
    data: Dict[str, Any]


#: builds a :class:`TraceRecord` without the generated ``__new__`` frame
_new_record = tuple.__new__

Subscriber = Callable[[TraceRecord], None]


class _Routes(dict):
    """Category -> the subscribers that take it, computed on first use.

    Cleared whenever the subscriber list changes.
    """

    __slots__ = ("_subscribers",)

    def __init__(self, subscribers: List[Tuple[Subscriber,
                                               Optional[FrozenSet[str]]]]):
        super().__init__()
        self._subscribers = subscribers

    def __missing__(self, category: str) -> Tuple[Subscriber, ...]:
        fns = self[category] = tuple(
            fn for fn, categories in self._subscribers
            if categories is None or category in categories)
        return fns


#: data keys that identify the emitting entity, in lookup order
#: (rank-scoped records first, node-scoped ones as fallback)
_ENTITY_KEYS = ("rank", "dst", "src", "node")


class TraceSampler:
    """Deterministic record sampling for a :class:`Trace` sink.

    ``strides`` maps a category (``"pioman.poll"``) or a whole layer
    (``"pioman"``) to an admit-every-Nth stride; the per-key counters
    make the decision a pure function of the record sequence, never of
    host state (no RNG — ``repro check`` would flag it anyway).
    ``entities`` restricts recording to the given rank/node ids (the
    first of ``rank``/``dst``/``src``/``node`` present in the record's
    data); records naming no entity are always admitted.

    Begin/end span categories (``*.begin``/``*.end``) are never
    stride-sampled — dropping half of a begin/end stream would leave
    the profiler with unmatched pairs — but the entity filter applies.
    """

    def __init__(self, strides: Optional[Dict[str, int]] = None,
                 entities: Optional[Sequence[int]] = None):
        for key, stride in (strides or {}).items():
            if stride < 1:
                raise ValueError(f"stride for {key!r} must be >= 1, "
                                 f"got {stride}")
        self.strides: Dict[str, int] = dict(strides or {})
        self.entities = frozenset(entities) if entities is not None else None
        self._counts: Dict[str, int] = {}

    def admit(self, category: str, data: Dict[str, Any]) -> bool:
        if self.entities is not None:
            for key in _ENTITY_KEYS:
                entity = data.get(key)
                if entity is not None:
                    if entity not in self.entities:
                        return False
                    break
        if not self.strides:
            return True
        stride = self.strides.get(category)
        if stride is None:
            stride = self.strides.get(category.split(".", 1)[0], 1)
        if stride == 1:
            return True
        if category.endswith(".begin") or category.endswith(".end"):
            return True
        count = self._counts.get(category, 0)
        self._counts[category] = count + 1
        return count % stride == 0


class Trace:
    """An append-only log of :class:`TraceRecord`.

    :meth:`filter`/:meth:`count` go through a per-category index that
    is brought up to date on demand, so they cost O(matches) plus the
    records appended since the last query, never a full scan.
    """

    def __init__(self, categories: Optional[set] = None,
                 sampler: Optional[TraceSampler] = None):
        self.records: List[TraceRecord] = []
        self._init_common(categories, sampler, self.records.append)
        self._by_category: Dict[str, List[TraceRecord]] = {}
        self._indexed = 0   # records[:_indexed] are in _by_category

    def _init_common(self, categories: Optional[set],
                     sampler: Optional[TraceSampler],
                     store: Callable[[TraceRecord], Any]) -> None:
        #: restrict recording to these categories (None = record all)
        self.categories = categories
        self.sampler = sampler
        #: keeps an admitted record: the one step that differs per sink
        self._store = store
        #: records rejected by the sampler (category-filtered ones are
        #: not counted: they were never meant for this trace)
        self.sampled_out = 0
        #: admitted records per category, in first-seen order; for
        #: bounded sinks these keep counting after eviction/spill
        self._counts: DefaultDict[str, int] = defaultdict(int)
        #: time of the first admitted record (None before any) and the
        #: latest admitted time: the traced span, whatever the sink keeps
        self.t_first: Optional[float] = None
        self.t_last = 0.0
        self._subscribers: List[Tuple[Subscriber,
                                      Optional[FrozenSet[str]]]] = []
        self._routes = _Routes(self._subscribers)
        #: (subscriber, exception) pairs for callbacks that raised and
        #: were detached; inspect in tests / after a run
        self.subscriber_errors: List[Tuple[Subscriber, BaseException]] = []

    @property
    def seen(self) -> int:
        """Records admitted past the category filter and sampler, ever."""
        return sum(self._counts.values())

    def append(self, time: float, category: str, data: Dict[str, Any]) -> None:
        """Admit one record: the single path every sink shares."""
        if self.categories is not None and category not in self.categories:
            return
        if self.sampler is not None and not self.sampler.admit(category, data):
            self.sampled_out += 1
            return
        rec = _new_record(TraceRecord, (time, category, data))
        self._store(rec)
        self._counts[category] += 1
        if self.t_first is None:
            self.t_first = time
        if time > self.t_last:
            self.t_last = time
        for fn in self._routes[category]:
            try:
                fn(rec)
            except SimulationError:
                raise
            except Exception as exc:
                self.subscriber_errors.append((fn, exc))
                self.unsubscribe(fn)

    def recorder(self, clock: Any) -> Callable[..., None]:
        """``record(category, **data)`` stamping records with
        ``clock._now`` — what a :class:`Simulator` calls as its
        ``record`` while this sink is attached."""
        append = self.append

        def record(category: str, **data: Any) -> None:
            append(clock._now, category, data)

        return record

    def subscribe(self, fn: Subscriber,
                  categories: Optional[Iterable[str]] = None) -> None:
        """Call ``fn(record)`` for every record appended from now on.

        With ``categories``, ``fn`` sees only records of those
        categories; the others never cost it a call.
        """
        if isinstance(categories, str):
            raise TypeError("categories must be a collection of names, "
                            f"not the string {categories!r}")
        self._subscribers.append(
            (fn, None if categories is None else frozenset(categories)))
        self._routes.clear()

    def unsubscribe(self, fn: Subscriber) -> None:
        """Stop delivering records to ``fn``.  Idempotent."""
        for i, (subscribed, _categories) in enumerate(self._subscribers):
            if subscribed == fn:
                del self._subscribers[i]
                self._routes.clear()
                return

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def categories_seen(self) -> List[str]:
        """Every category ever admitted, in first-seen order."""
        return list(self._counts)

    def first_divergence(self, other: "Trace") -> Optional[int]:
        """Index of the first record where this trace differs from
        ``other``, or None when both streams are identical.

        The order-equivalence and progress-engine differential suites
        use this to report *where* two runs diverged instead of dumping two full record lists.
        Length differences diverge at the shorter trace's end.
        """
        mine = list(self)
        theirs = list(other)
        for i, (a, b) in enumerate(zip(mine, theirs)):
            if a != b:
                return i
        if len(mine) != len(theirs):
            return min(len(mine), len(theirs))
        return None

    def filter(self, category: str, **match: Any) -> List[TraceRecord]:
        """Records of ``category`` whose data contains all of ``match``."""
        index = self._by_category
        for rec in self.records[self._indexed:]:
            bucket = index.get(rec.category)
            if bucket is None:
                bucket = index[rec.category] = []
            bucket.append(rec)
        self._indexed = len(self.records)
        recs = index.get(category, [])
        if not match:
            return list(recs)
        return [rec for rec in recs
                if all(rec.data.get(k) == v for k, v in match.items())]

    def count(self, category: str, **match: Any) -> int:
        if not match:
            return self._counts.get(category, 0)
        return len(self.filter(category, **match))


class RingTrace(Trace):
    """A :class:`Trace` retaining only the last ``capacity`` records.

    Memory is bounded by ``capacity`` regardless of run length; the
    lifetime tallies (:attr:`seen`, :attr:`evicted`, per-category
    counts via :meth:`lifetime_count`) keep counting past eviction, and
    subscribers stream over every admitted record, so live consumers
    (metrics, the span profiler) observe the full run.  ``filter`` /
    ``count`` / iteration see the retained window only.
    """

    def __init__(self, capacity: int, categories: Optional[set] = None,
                 sampler: Optional[TraceSampler] = None):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[TraceRecord] = deque(maxlen=capacity)
        self._init_common(categories, sampler, self._ring.append)

    @property
    def records(self) -> List[TraceRecord]:  # type: ignore[override]
        """The retained window, oldest first."""
        return list(self._ring)

    @property
    def evicted(self) -> int:
        """Admitted records pushed out of the ring by newer ones."""
        return self.seen - len(self._ring)

    def lifetime_count(self, category: str) -> int:
        """Admitted records of ``category`` ever, evicted ones included."""
        return self._counts.get(category, 0)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)

    def filter(self, category: str, **match: Any) -> List[TraceRecord]:
        """Matching records still in the retained window."""
        return [rec for rec in self._ring
                if rec.category == category
                and all(rec.data.get(k) == v for k, v in match.items())]

    def count(self, category: str, **match: Any) -> int:
        return len(self.filter(category, **match))


class JsonlTrace(Trace):
    """A :class:`Trace` spilling every record to disk as JSON lines.

    Nothing is retained in memory: each admitted record becomes one
    ``{"time": ..., "category": ..., "data": {...}}`` line on ``path``
    (values JSON-sanitized the way the Perfetto exporter does — tuples
    become lists, exotic objects their ``repr``).  Reload the full
    trace with :func:`load_trace_jsonl`.  Use as a context manager, or
    call :meth:`close` when the run is over.
    """

    def __init__(self, path: str, categories: Optional[set] = None,
                 sampler: Optional[TraceSampler] = None):
        self.path = path
        self._fh = open(path, "w")
        self._init_common(categories, sampler, self._spill)

    @property
    def records(self) -> List[TraceRecord]:  # type: ignore[override]
        return []

    def _spill(self, rec: TraceRecord) -> None:
        self._fh.write(json.dumps(
            {"time": rec.time, "category": rec.category,
             "data": {str(k): _jsonable(v) for k, v in rec.data.items()}}))
        self._fh.write("\n")

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlTrace":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(())

    def categories_seen(self) -> List[str]:
        return []

    def filter(self, category: str, **match: Any) -> List[TraceRecord]:
        return []

    def count(self, category: str, **match: Any) -> int:
        return 0


def _jsonable(value: Any) -> Any:
    """Make a record data value JSON-serializable (lossy for objects)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def load_trace_jsonl(path: str) -> Trace:
    """Rebuild an in-memory :class:`Trace` from a :class:`JsonlTrace` file.

    Data values round-trip through JSON: tuples come back as lists and
    non-JSON objects as their ``repr`` strings, which is faithful
    enough for breakdowns, metrics and Perfetto export.
    """
    trace = Trace()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            trace.append(obj["time"], obj["category"], obj["data"])
    return trace
