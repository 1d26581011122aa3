"""Property tests: the event queue's dispatch order and lazy deletion.

Hypothesis drives randomized programs through the full
:class:`Simulator` API:

* post/cancel/repost from inside running callbacks — dispatches are
  non-decreasing in time, FIFO by posting order at equal times, every
  callback fires at its scheduled time, and no cancelled handle fires;
* random cancels before and during a run — exactly the live handles
  fire, in ``(time, seq)`` order, and after every ``cancel()`` the
  cancelled entries still queued stay within the compaction rule.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import ScheduledCallback, Simulator
from repro.simulator.engine import _COMPACT_MIN_CANCELLED

#: per-callback actions for the post/cancel/repost program
_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["spawn", "cancelchild", "repost"]),
        st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 2.5e-4]),  # delays (>= 0)
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1, max_size=40)


def _drive(actions):
    """One run where callbacks post, cancel and repost more work.

    Returns the dispatch log ``[(time, post index)]``, the scheduled
    time of every post, and the post indices cancelled.
    """
    sim = Simulator()
    fired = []
    due = {}
    cancelled = set()
    handles = []
    posts = itertools.count()

    def post(delay, fn, *args):
        idx = next(posts)
        due[idx] = sim.now + delay
        handles.append((idx, sim.schedule(delay, fn, idx, *args)))

    def note(idx):
        assert idx not in cancelled, f"cancelled post {idx} fired"
        assert sim.now == due[idx]
        fired.append((sim.now, idx))

    def fire(idx, depth, todo):
        note(idx)
        if depth >= 2:
            return
        for what, delay, arg in todo:
            if what == "spawn":
                post(delay, fire, depth + 1, todo[arg:])
            elif what == "cancelchild":
                victim, handle = handles[arg % len(handles)]
                handle.cancel()
                cancelled.add(victim)
            else:                                # repost at the same time
                post(0.0, note)

    for _, delay, _ in actions:
        post(delay, fire, 0, actions)
    sim.run()
    assert not sim._queue
    return fired, due, cancelled


@settings(max_examples=25, deadline=None)
@given(actions=_ACTIONS)
def test_dispatch_order_is_time_then_posting_order(actions) -> None:
    fired, due, cancelled = _drive(actions)
    # strictly increasing (time, post index): time never goes backwards
    # and equal times dispatch in posting (seq) order
    assert all(a < b for a, b in zip(fired, fired[1:]))
    # every post fired exactly once unless cancelled before its turn
    fired_ids = [idx for _, idx in fired]
    assert len(fired_ids) == len(set(fired_ids))
    assert set(fired_ids) | cancelled == set(due)


#: handle times: exact ties plus several magnitudes (all after t=0)
_TIMES = [1e-9, 2e-9, 5e-9, 1e-6, 2.5e-4, 1.0]


def _queued_cancelled(sim: Simulator) -> int:
    return sum(1 for entry in sim._queue
               if type(entry[2]) is ScheduledCallback and entry[2].cancelled)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=400),
       doomed_share=st.floats(min_value=0.0, max_value=1.0),
       early_share=st.floats(min_value=0.0, max_value=1.0),
       rng=st.randoms(use_true_random=False))
def test_lazy_deletion_fires_exactly_the_live_handles(
        n, doomed_share, early_share, rng) -> None:
    """Enough handles and cancels that compaction fires, before the run
    and from inside the run loop."""
    sim = Simulator()
    fired = []
    times = [rng.choice(_TIMES) for _ in range(n)]
    handles = [sim.schedule(t, fired.append, i) for i, t in enumerate(times)]
    doomed = rng.sample(range(n), int(n * doomed_share))
    early = int(len(doomed) * early_share)

    def cancel(i):
        handles[i].cancel()
        stale = _queued_cancelled(sim)
        live = len(sim._queue) - stale
        assert stale <= max(_COMPACT_MIN_CANCELLED - 1, live)

    for i in doomed[:early]:                     # before the run
        cancel(i)

    def cancel_rest():                           # inside the run loop
        for i in doomed[early:]:
            cancel(i)

    sim.schedule(0.0, cancel_rest)
    sim.run()
    live = sorted(set(range(len(times))) - set(doomed),
                  key=lambda i: (times[i], i))
    assert fired == live
    assert not sim._queue
