"""Pluggable event-queue schedulers for the simulator core.

The engine needs exactly one data-structure contract: ``push`` entries
keyed by ``(time, seq)`` and hand them back in that total order.  The
right implementation depends on workload shape, so the structure is
pluggable via ``Simulator(scheduler=...)`` (or the ``REPRO_SCHEDULER``
environment knob):

* :class:`HeapScheduler` — the reference binary heap.  O(log n) per
  operation, minimal constant factors, behaviourally identical to the
  engine's original inline ``heapq`` loop.  Select with ``"heap"`` —
  the default: at ~10 dispatches per message the queues of every
  measured workload are too shallow for batching to pay (DESIGN.md §7).
* :class:`CalendarScheduler` — a bucketed calendar queue (Brown 1988)
  with adaptive bucket width.  Pushes are O(1) dict+append; the drain
  side extracts whole *batches* of same-timestamp entries in one call,
  which is what makes dense event floods (collective fan-outs posting
  thousands of events at one sim time, PIOMan poll ticks) cheap.
  Select with ``"calendar"``.

Entry contract (owned by :mod:`repro.simulator.engine`): tuples of
shape ``(time, seq, handle)`` or ``(time, seq, fn, args)``.  ``seq`` is
globally unique and allocated in push order, so tuple comparison never
reaches the third element and ties in time resolve to FIFO.

Equivalence contract — enforced by ``tests/simulator/``'s differential
and property harnesses, and the reason the choice never shows in a
result:

* ``pop``/``pop_batch`` yield entries in strictly increasing
  ``(time, seq)`` order, bit-identical to the heap's order;
* ``pop_batch`` returns a maximal run of equal-time entries in seq
  order; a push at exactly the open batch's time joins that batch
  (its seq is greater than every pending entry's, so appending keeps
  the run sorted);
* lazy deletion: cancelled handles stay queued and are skipped at
  dispatch; :meth:`EventScheduler.remove_if` compacts them in batch.
"""

from __future__ import annotations

import os
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "EventScheduler",
    "HeapScheduler",
    "CalendarScheduler",
    "SCHEDULER_ENV",
    "SCHEDULER_KINDS",
    "make_scheduler",
]

#: heap entries are (time, seq, handle) or (time, seq, fn, args)
Entry = Tuple[Any, ...]

#: environment knob consulted when ``Simulator(scheduler=None)``
SCHEDULER_ENV = "REPRO_SCHEDULER"

_DEFAULT_KIND = "heap"


class EventScheduler:
    """Interface of a pending-event container ordered by ``(time, seq)``.

    Concrete schedulers must keep the pop order bit-identical to a
    binary heap over the same pushes — the engine's determinism (and
    the golden suite) rides on it.
    """

    #: registry name, reported through ``Simulator.perf_stats()``
    kind: str = "abstract"

    def push(self, entry: Entry) -> None:
        """Queue one entry."""
        raise NotImplementedError

    def pop(self) -> Optional[Entry]:
        """Remove and return the smallest entry, or None when empty."""
        raise NotImplementedError

    def pop_batch(self) -> Optional[List[Entry]]:
        """Remove and return a maximal equal-time run, or None when empty.

        The returned list is sorted by seq.  Until :meth:`end_batch` is
        called the batch is *open*: a scheduler may route pushes that
        carry exactly the batch timestamp onto the returned list (they
        hold greater seqs than every pending entry, so the run stays
        sorted, and the engine's drain loop re-checks the length).
        """
        raise NotImplementedError

    def end_batch(self, batch: List[Entry], done: int) -> None:
        """Close the open batch; re-queue ``batch[done:]`` if present.

        Entries past ``done`` were never dispatched (an exception
        escaped the drain loop); they go back into the queue so a
        subsequent ``run()`` resumes exactly where the previous one
        stopped — the same recovery the heap gave for free.
        """
        raise NotImplementedError

    def peek_time(self) -> Optional[float]:
        """Timestamp of the smallest entry, or None when empty."""
        raise NotImplementedError

    def remove_if(self, pred: Callable[[Entry], bool]) -> int:
        """Drop every queued entry matching ``pred``; return the count."""
        raise NotImplementedError

    def entries(self) -> Iterator[Entry]:
        """Iterate over queued entries (no order guarantee; test hook)."""
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        """Structure-specific counters for ``perf_stats()`` telemetry."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class HeapScheduler(EventScheduler):
    """The reference scheduler: a plain binary heap (``heapq``).

    Kept (and CI-exercised via ``REPRO_SCHEDULER=heap``) as the ground
    truth the calendar queue is differentially tested against.
    """

    kind = "heap"

    __slots__ = ("_h",)

    def __init__(self) -> None:
        self._h: List[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._h, entry)

    def pop(self) -> Optional[Entry]:
        if not self._h:
            return None
        return heappop(self._h)

    def pop_batch(self) -> Optional[List[Entry]]:
        h = self._h
        if not h:
            return None
        entry = heappop(h)
        batch = [entry]
        # exact same-timestamp run: ties share one dispatch batch
        # repro-lint: allow[RPR004] — equal floats ARE the batch contract
        first = entry[0]
        while h and h[0][0] == first:  # repro-lint: allow[RPR004]
            batch.append(heappop(h))
        return batch

    def end_batch(self, batch: List[Entry], done: int) -> None:
        h = self._h
        for entry in batch[done:]:
            heappush(h, entry)

    def peek_time(self) -> Optional[float]:
        if not self._h:
            return None
        return float(self._h[0][0])

    def remove_if(self, pred: Callable[[Entry], bool]) -> int:
        kept = [entry for entry in self._h if not pred(entry)]
        removed = len(self._h) - len(kept)
        if removed:
            heapify(kept)
            self._h = kept
        return removed

    def entries(self) -> Iterator[Entry]:
        return iter(self._h)

    def stats(self) -> Dict[str, float]:
        return {"entries": float(len(self._h))}

    def __len__(self) -> int:
        return len(self._h)


#: starting bucket width (seconds).  The stack's event spacing is
#: ns..us scale; adaptation corrects either direction from here.
_INIT_WIDTH = 1e-7
#: sorted-bucket length that triggers a width shrink (when the bucket
#: actually spans more than one timestamp)
_SPLIT_BUCKET = 512
#: entries per bucket the resize aims for
_TARGET_FILL = 16
#: pushes between sparsity checks (widen direction)
_WIDEN_CHECK = 8192
#: never resize by less than this factor (avoids rehash thrash)
_MIN_RESIZE_RATIO = 2.0


class CalendarScheduler(EventScheduler):
    """Bucketed calendar queue with adaptive width and batch drain.

    Layout: a dict keyed by ``int(time / width)`` holding unsorted
    entry lists, plus a small heap of bucket keys.  A push is an O(1)
    dict lookup + append.  The drain side *promotes* the minimum
    bucket: sorts it once (Timsort on the nearly sorted append order),
    removes it from the dict, and serves equal-time batches out of the
    promoted run by advancing an index — no per-batch re-sort, no list
    shifting.  Pushes that land inside the live run's remaining span
    are bisect-inserted so the run stays exact; buckets therefore only
    ever hold times *after* the run's tail, which keeps every batch
    maximal.  Cost per entry is O(log B) amortized while the width
    matches the event spacing; two deterministic triggers keep it
    matched:

    * **shrink** — a drained bucket holds more than ``_SPLIT_BUCKET``
      entries spanning multiple timestamps: the width is re-derived
      from that bucket's observed span (aiming at ``_TARGET_FILL``
      entries per bucket) and everything is rehashed;
    * **widen** — a periodic push-count check finds far more buckets
      than entries (every entry alone in its bucket, the key heap
      degenerating toward a plain heap): the width is re-derived from
      the pending key span.

    Both triggers depend only on queue state, never on host time, so
    runs stay bit-for-bit reproducible.

    The same-timestamp floods this repo cares about (collective
    fan-outs, zero-delay event dispatch) all land in the *open batch*
    fast path: while the engine drains a batch at time ``t``, a push at
    exactly ``t`` is appended straight onto the draining list — no
    bucket math, no sort, no heap.
    """

    kind = "calendar"

    __slots__ = ("_buckets", "_keys", "_width", "_inv_width", "_count",
                 "_open", "_open_t", "_pending", "_pending_i",
                 "_push_tick", "_resizes", "_batches", "_max_batch")

    def __init__(self, width: float = _INIT_WIDTH) -> None:
        if width <= 0.0:
            raise ValueError(f"bucket width must be positive, got {width!r}")
        self._buckets: Dict[int, List[Entry]] = {}
        self._keys: List[int] = []       # min-heap of bucket keys (lazy dups)
        self._width = width
        self._inv_width = 1.0 / width
        self._count = 0
        #: batch currently being drained by the engine (live-append target)
        self._open: Optional[List[Entry]] = None
        self._open_t = 0.0
        #: the promoted run: one whole bucket, sorted, consumed by index
        self._pending: List[Entry] = []
        self._pending_i = 0
        self._push_tick = 0
        self._resizes = 0
        self._batches = 0
        self._max_batch = 0

    # -- write side ----------------------------------------------------
    def push(self, entry: Entry) -> None:
        open_batch = self._open
        # repro-lint: allow[RPR004] — exact-equal time IS the batch key:
        # a zero-delay post from inside the batch carries the batch's
        # own float, and a greater seq than everything pending
        if open_batch is not None and entry[0] == self._open_t:
            open_batch.append(entry)
            return
        pending = self._pending
        i = self._pending_i
        if i < len(pending):
            time = entry[0]
            if time < pending[i][0]:
                # a push under the promoted run's head (only possible
                # from user code between stepped runs): spill the run
                # back so the bucket walk re-derives the true minimum
                self._spill_pending()
                self._insert(entry)
            elif time <= pending[-1][0]:
                # inside the live run's remaining span: bisect in, so
                # buckets never hold a time at or before the run tail
                # (that keeps every served batch maximal and exact)
                insort(pending, entry, i)
            else:
                self._insert(entry)
        else:
            self._insert(entry)
        self._count += 1
        self._push_tick += 1
        if self._push_tick >= _WIDEN_CHECK:
            self._push_tick = 0
            self._maybe_widen()

    def _insert(self, entry: Entry) -> None:
        key = int(entry[0] * self._inv_width)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heappush(self._keys, key)
        else:
            bucket.append(entry)

    def _spill_pending(self) -> None:
        for entry in self._pending[self._pending_i:]:
            self._insert(entry)
        self._pending = []
        self._pending_i = 0

    # -- read side -----------------------------------------------------
    def _promote(self) -> bool:
        """Promote the minimum bucket into the pending run.

        The bucket is sorted once, removed from the dict, and becomes
        ``self._pending`` served by index.  Equal times always hash to
        the same key, and :meth:`push` never buckets a time at or below
        the pending tail, so every batch carved from the run is the
        maximal equal-time run of the whole queue.
        """
        buckets = self._buckets
        keys = self._keys
        while keys:
            key = keys[0]
            bucket = buckets.get(key)
            if not bucket:
                heappop(keys)            # stale or emptied key
                if bucket is not None:
                    del buckets[key]
                continue
            heappop(keys)
            del buckets[key]
            bucket.sort()
            if len(bucket) >= _SPLIT_BUCKET:
                self._maybe_shrink(bucket)
            self._pending = bucket
            self._pending_i = 0
            return True
        return False

    def pop_batch(self) -> Optional[List[Entry]]:
        pending = self._pending
        i = self._pending_i
        if i >= len(pending):
            if not self._promote():
                return None
            pending = self._pending
            i = 0
        first = pending[i][0]
        j = i + 1
        n = len(pending)
        # repro-lint: allow[RPR004] — equal floats ARE the batch
        while j < n and pending[j][0] == first:
            j += 1
        if i == 0 and j == n:
            batch = pending                 # whole run in one batch: no copy
            self._pending = []
            self._pending_i = 0
        else:
            batch = pending[i:j]
            if j >= n:
                self._pending = []
                self._pending_i = 0
            else:
                self._pending_i = j
        self._count -= len(batch)
        self._open = batch
        self._open_t = first
        self._batches += 1
        if len(batch) > self._max_batch:
            self._max_batch = len(batch)
        return batch

    def end_batch(self, batch: List[Entry], done: int) -> None:
        self._open = None
        if done < len(batch):
            # undispatched leftovers share the batch timestamp, which
            # precedes everything still pending: prepend, don't rehash
            left = batch[done:]
            i = self._pending_i
            pending = self._pending
            if i < len(pending):
                self._pending = left + pending[i:]
            else:
                self._pending = left
            self._pending_i = 0
            self._count += len(left)

    def pop(self) -> Optional[Entry]:
        pending = self._pending
        i = self._pending_i
        if i >= len(pending):
            if not self._promote():
                return None
            pending = self._pending
            i = 0
        entry = pending[i]
        if i + 1 >= len(pending):
            self._pending = []
            self._pending_i = 0
        else:
            self._pending_i = i + 1
        self._count -= 1
        return entry

    def peek_time(self) -> Optional[float]:
        pending = self._pending
        i = self._pending_i
        if i >= len(pending):
            if not self._promote():
                return None
            pending = self._pending
            i = 0
        return float(pending[i][0])

    # -- adaptive width ------------------------------------------------
    def _rehash(self, new_width: float) -> None:
        entries: List[Entry] = []
        for bucket in self._buckets.values():
            entries.extend(bucket)
        self._width = new_width
        self._inv_width = 1.0 / new_width
        buckets: Dict[int, List[Entry]] = {}
        inv = self._inv_width
        for entry in entries:
            key = int(entry[0] * inv)
            lst = buckets.get(key)
            if lst is None:
                buckets[key] = [entry]
            else:
                lst.append(entry)
        self._buckets = buckets
        keys = list(buckets)
        heapify(keys)
        self._keys = keys
        self._resizes += 1

    def _maybe_shrink(self, bucket: List[Entry]) -> None:
        """A sorted, oversized, multi-timestamp bucket: narrow the width."""
        span = float(bucket[-1][0]) - float(bucket[0][0])
        if span <= 0.0:
            return                       # one huge same-time flood: fine
        new_width = span / max(1.0, len(bucket) / _TARGET_FILL)
        if new_width <= 0.0 or self._width / new_width < _MIN_RESIZE_RATIO:
            return
        self._rehash(new_width)

    def _maybe_widen(self) -> None:
        """Far more buckets than entries: re-derive width from key span."""
        n_buckets = len(self._buckets)
        if n_buckets < 64 or self._count >= n_buckets * 2:
            return
        keys = self._buckets.keys()
        span_keys = max(keys) - min(keys) + 1
        span = span_keys * self._width
        new_width = span / max(1.0, self._count / _TARGET_FILL)
        if new_width / self._width < _MIN_RESIZE_RATIO:
            return
        self._rehash(new_width)

    # -- maintenance & introspection ------------------------------------
    def remove_if(self, pred: Callable[[Entry], bool]) -> int:
        removed = 0
        if self._pending_i < len(self._pending):
            kept = [entry for entry in self._pending[self._pending_i:]
                    if not pred(entry)]
            removed += len(self._pending) - self._pending_i - len(kept)
            self._pending = kept
            self._pending_i = 0
        buckets = self._buckets
        for key in list(buckets):
            bucket = buckets[key]
            kept = [entry for entry in bucket if not pred(entry)]
            if len(kept) != len(bucket):
                removed += len(bucket) - len(kept)
                if kept:
                    buckets[key] = kept
                else:
                    del buckets[key]     # key goes stale; drained lazily
        self._count -= removed
        return removed

    def entries(self) -> Iterator[Entry]:
        yield from self._pending[self._pending_i:]
        for bucket in self._buckets.values():
            yield from bucket

    def stats(self) -> Dict[str, float]:
        return {
            "width": self._width,
            "buckets": float(len(self._buckets)),
            "resizes": float(self._resizes),
            "batches": float(self._batches),
            "max_batch": float(self._max_batch),
        }

    def __len__(self) -> int:
        return self._count


#: name -> factory, the ``Simulator(scheduler=...)`` registry
SCHEDULER_KINDS: Dict[str, Callable[[], EventScheduler]] = {
    "heap": HeapScheduler,
    "calendar": CalendarScheduler,
}


def make_scheduler(
        scheduler: Union[EventScheduler, str, None] = None) -> EventScheduler:
    """Resolve a scheduler selection to an instance.

    ``None`` consults the ``REPRO_SCHEDULER`` environment variable and
    falls back to the binary heap; a string is looked up in
    :data:`SCHEDULER_KINDS`; an :class:`EventScheduler` instance passes
    through untouched.
    """
    if isinstance(scheduler, EventScheduler):
        return scheduler
    if scheduler is None:
        scheduler = os.environ.get(SCHEDULER_ENV, _DEFAULT_KIND) or \
            _DEFAULT_KIND
    try:
        factory = SCHEDULER_KINDS[scheduler]
    except KeyError:
        known = ", ".join(sorted(SCHEDULER_KINDS))
        raise ValueError(
            f"unknown scheduler {scheduler!r} (known: {known})") from None
    return factory()
