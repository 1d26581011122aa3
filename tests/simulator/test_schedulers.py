"""Unit tests for the pluggable event-queue schedulers.

The contract under test (see ``repro/simulator/schedulers.py``): any
scheduler must hand back entries in exactly the ``(time, seq)`` total
order a binary heap would, with ``pop_batch`` carving that order into
maximal equal-time runs.  The calendar queue's adaptive machinery
(bucket resizes, the pending buffer, live appends to an open batch)
must all be invisible in the output order.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.simulator.schedulers import (
    SCHEDULER_ENV,
    SCHEDULER_KINDS,
    CalendarScheduler,
    HeapScheduler,
    make_scheduler,
)


def _entries(times):
    """Build engine-shaped entries with seqs in push order."""
    return [(t, seq, "h") for seq, t in enumerate(times)]


def _drain_pops(sched):
    out = []
    while True:
        entry = sched.pop()
        if entry is None:
            return out
        out.append(entry)


def _drain_batches(sched):
    out = []
    while True:
        batch = sched.pop_batch()
        if batch is None:
            return out
        sched.end_batch(batch, len(batch))
        out.append(list(batch))
    return out


@pytest.fixture(params=sorted(SCHEDULER_KINDS))
def sched(request):
    return SCHEDULER_KINDS[request.param]()


# -- factory -----------------------------------------------------------
def test_make_scheduler_default_kind(monkeypatch) -> None:
    monkeypatch.delenv(SCHEDULER_ENV, raising=False)
    assert isinstance(make_scheduler(None), HeapScheduler)


def test_make_scheduler_honours_env(monkeypatch) -> None:
    monkeypatch.setenv(SCHEDULER_ENV, "heap")
    assert isinstance(make_scheduler(None), HeapScheduler)
    monkeypatch.setenv(SCHEDULER_ENV, "")
    assert isinstance(make_scheduler(None), HeapScheduler)
    monkeypatch.setenv(SCHEDULER_ENV, "calendar")
    assert isinstance(make_scheduler(None), CalendarScheduler)


def test_make_scheduler_name_and_passthrough() -> None:
    assert isinstance(make_scheduler("heap"), HeapScheduler)
    inst = CalendarScheduler()
    assert make_scheduler(inst) is inst
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("splay")


def test_calendar_rejects_nonpositive_width() -> None:
    with pytest.raises(ValueError):
        CalendarScheduler(width=0.0)


# -- total order -------------------------------------------------------
def test_pop_yields_sorted_order(sched) -> None:
    times = [5e-6, 1e-6, 1e-6, 3e-6, 0.0, 5e-6, 2.5e-6]
    entries = _entries(times)
    for entry in entries:
        sched.push(entry)
    assert len(sched) == len(entries)
    assert _drain_pops(sched) == sorted(entries)
    assert len(sched) == 0
    assert sched.pop() is None
    assert sched.peek_time() is None


def test_pop_batch_is_maximal_equal_time_runs(sched) -> None:
    times = [2.0, 1.0, 1.0, 3.0, 1.0, 2.0]
    for entry in _entries(times):
        sched.push(entry)
    batches = _drain_batches(sched)
    assert [[e[0] for e in b] for b in batches] == \
        [[1.0, 1.0, 1.0], [2.0, 2.0], [3.0]]
    # within a batch, seq (push) order
    assert [e[1] for e in batches[0]] == [1, 2, 4]


def test_random_interleaving_matches_heap(sched) -> None:
    rng = random.Random(42)
    seq = itertools.count()
    reference = HeapScheduler()
    popped, ref_popped = [], []
    for _ in range(2000):
        action = rng.random()
        if action < 0.6 or len(sched) == 0:
            t = rng.choice([0.0, 1e-9, 5e-9, 1e-6, 2.5e-4, 1.0]) * \
                rng.randint(1, 20)
            entry = (t, next(seq), "h")
            sched.push(entry)
            reference.push(entry)
        elif action < 0.85:
            popped.append(sched.pop())
            ref_popped.append(reference.pop())
        else:
            batch = sched.pop_batch()
            ref = reference.pop_batch()
            assert (batch is None) == (ref is None)
            if batch is not None:
                sched.end_batch(batch, len(batch))
                reference.end_batch(ref, len(ref))
                popped.extend(batch)
                ref_popped.extend(ref)
        assert len(sched) == len(reference)
    popped.extend(_drain_pops(sched))
    ref_popped.extend(_drain_pops(reference))
    assert popped == ref_popped


# -- open-batch live append -------------------------------------------
def test_push_at_open_batch_time_dispatches_before_later_times(sched) -> None:
    """A same-time push during an open batch runs before any later time.

    The calendar appends it to the draining list in place; the heap
    serves it as the immediately following batch.  Either way the
    dispatch order (what the engine executes) is identical.
    """
    for entry in _entries([1.0, 1.0, 2.0]):
        sched.push(entry)
    order = []
    batch = sched.pop_batch()
    done = 0
    while done < len(batch):                     # the engine's drain shape
        entry = batch[done]
        done += 1
        order.append(entry[1])
        if entry[1] == 1:
            sched.push((1.0, 99, "late"))
    sched.end_batch(batch, done)
    for later in _drain_batches(sched):
        order.extend(e[1] for e in later)
    assert order == [0, 1, 99, 2]


def test_calendar_live_append_lands_in_the_open_batch() -> None:
    cal = CalendarScheduler()
    for entry in _entries([1.0, 1.0, 2.0]):
        cal.push(entry)
    batch = cal.pop_batch()
    assert [e[1] for e in batch] == [0, 1]
    cal.push((1.0, 99, "late"))
    assert [e[1] for e in batch] == [0, 1, 99]   # appended in place
    cal.end_batch(batch, len(batch))
    assert _drain_pops(cal) == [(2.0, 2, "h")]


def test_push_at_other_time_during_open_batch(sched) -> None:
    for entry in _entries([1.0, 3.0]):
        sched.push(entry)
    batch = sched.pop_batch()
    sched.push((2.0, 10, "mid"))
    assert len(batch) == 1                       # did not join
    sched.end_batch(batch, len(batch))
    assert [e[0] for e in _drain_pops(sched)] == [2.0, 3.0]


def test_end_batch_requeues_undispatched_tail(sched) -> None:
    for entry in _entries([1.0, 1.0, 1.0]):
        sched.push(entry)
    batch = sched.pop_batch()
    assert len(sched) == 0
    sched.end_batch(batch, 1)                    # crashed after one entry
    assert len(sched) == 2
    assert [e[1] for e in _drain_pops(sched)] == [1, 2]


# -- pending buffer / mixed access ------------------------------------
def test_peek_then_push_below_head_spills(sched) -> None:
    for entry in _entries([2.0, 3.0]):
        sched.push(entry)
    assert sched.peek_time() == pytest.approx(2.0)
    sched.push((1.0, 50, "early"))               # below the buffered head
    assert sched.peek_time() == pytest.approx(1.0)
    assert [e[0] for e in _drain_pops(sched)] == [1.0, 2.0, 3.0]


def test_mixed_pop_and_pop_batch(sched) -> None:
    for entry in _entries([1.0, 1.0, 2.0, 2.0]):
        sched.push(entry)
    assert sched.pop()[1] == 0                   # half a batch, entry-wise
    batch = sched.pop_batch()                    # rest of the t=1 run
    assert [e[1] for e in batch] == [1]
    sched.end_batch(batch, len(batch))
    assert [e[1] for e in _drain_pops(sched)] == [2, 3]


# -- remove_if ---------------------------------------------------------
def test_remove_if_drops_matches_everywhere(sched) -> None:
    entries = _entries([1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
    for entry in entries:
        sched.push(entry)
    sched.peek_time()                            # pull a run into any buffer
    removed = sched.remove_if(lambda e: e[1] % 2 == 0)
    assert removed == 3
    assert len(sched) == 3
    assert [e[1] for e in _drain_pops(sched)] == [1, 3, 5]


def test_entries_exposes_queued_items(sched) -> None:
    pushed = _entries([3.0, 1.0, 2.0])
    for entry in pushed:
        sched.push(entry)
    assert sorted(sched.entries()) == sorted(pushed)


# -- calendar adaptation ----------------------------------------------
def test_calendar_shrinks_on_an_oversized_bucket() -> None:
    cal = CalendarScheduler(width=1.0)           # everything in one bucket
    times = [i * 1e-4 for i in range(2000)]
    entries = _entries(times)
    for entry in entries:
        cal.push(entry)
    assert _drain_pops(cal) == sorted(entries)
    stats = cal.stats()
    assert stats["resizes"] >= 1
    assert cal._width < 1.0


def test_calendar_widens_when_sparse() -> None:
    cal = CalendarScheduler(width=1e-9)          # every entry alone
    seq = itertools.count()
    for _ in range(3):                           # cross the widen check
        for i in range(4096):
            cal.push((i * 1e-3, next(seq), "h"))
        drained = _drain_pops(cal)
        assert drained == sorted(drained)
    assert cal.stats()["resizes"] >= 1
    assert cal._width > 1e-9


def test_calendar_same_time_flood_never_resizes() -> None:
    cal = CalendarScheduler(width=1.0)
    for entry in _entries([0.5] * 4096):
        cal.push(entry)
    batch = cal.pop_batch()
    assert len(batch) == 4096
    cal.end_batch(batch, len(batch))
    assert cal.stats()["resizes"] == 0           # zero span: no shrink
    assert len(cal) == 0


def test_calendar_stats_counters() -> None:
    cal = CalendarScheduler()
    for entry in _entries([1.0, 1.0, 2.0]):
        cal.push(entry)
    _drain_batches(cal)
    stats = cal.stats()
    assert stats["batches"] == 2
    assert stats["max_batch"] == 2
    assert stats["width"] > 0
