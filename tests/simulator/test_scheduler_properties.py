"""Property test: the event queue's dispatch order.

Hypothesis drives randomized programs whose callbacks post more work
through every push site of :class:`Simulator` — ``schedule``, ``at``,
the internal ``_post`` and a task's bare ``float`` delay — and checks
that dispatches are non-decreasing in time, FIFO by posting order at
equal times, that every callback fires at its scheduled time, and that
every post fires exactly once.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Simulator

#: per-callback actions: how the next post is pushed, its delay (>= 0)
#: and which tail of the action list the child runs
_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "at", "post", "sleep", "repost"]),
        st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 2.5e-4]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1, max_size=40)


def _drive(actions):
    """One run where callbacks post and repost more work.

    Returns the dispatch log ``[(time, post index)]`` and the scheduled
    time of every post.
    """
    sim = Simulator()
    fired = []
    due = {}
    posts = itertools.count()

    def register(delay):
        idx = next(posts)
        due[idx] = sim.now + delay
        return idx

    def note(idx):
        assert sim.now == due[idx]
        fired.append((sim.now, idx))

    def sleeper(delay, depth, todo):
        # registered right before the yield pushes the wake-up, so the
        # post index follows the queue's seq order
        idx = register(delay)
        yield delay
        fire(idx, depth, todo)

    def post(how, delay, depth, todo):
        if how == "sleep":
            sim.spawn(sleeper(delay, depth, todo))
            return
        idx = register(delay)
        if how == "schedule":
            sim.schedule(delay, fire, idx, depth, todo)
        elif how == "at":
            sim.at(sim.now + delay, fire, idx, depth, todo)
        else:
            sim._post(delay, fire, idx, depth, todo)

    def fire(idx, depth, todo):
        note(idx)
        if depth >= 2:
            return
        for how, delay, arg in todo:
            if how == "repost":                  # same time, later seq
                sim.schedule(0.0, note, register(0.0))
            else:
                post(how, delay, depth + 1, todo[arg:])

    for how, delay, _ in actions:
        post("schedule" if how == "repost" else how, delay, 0, actions)
    sim.run()
    assert not sim._queue
    return fired, due


@settings(max_examples=40, deadline=None)
@given(actions=_ACTIONS)
def test_dispatch_order_is_time_then_posting_order(actions) -> None:
    fired, due = _drive(actions)
    # strictly increasing (time, post index): time never goes backwards
    # and equal times dispatch in posting (seq) order
    assert all(a < b for a, b in zip(fired, fired[1:]))
    # every post fired exactly once
    fired_ids = [idx for _, idx in fired]
    assert sorted(fired_ids) == sorted(due)
