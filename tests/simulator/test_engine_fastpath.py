"""The engine's hot-path machinery: slim entries, compaction, tracing.

These pin the behaviours the benchmark-driven rewrites introduced:

* ``_post`` entries interleave with handle entries in strict
  ``(time, seq)`` order (FIFO at equal times);
* lazy-deleted (cancelled) handles are compacted in batches once they
  dominate the queue, without disturbing live entries;
* with a monitor installed ``_post`` degrades to a monitored handle so
  happens-before edges survive;
* ``record`` is a no-op without a trace and appends with one.
"""

from __future__ import annotations

from repro.simulator import Simulator, Trace
from repro.simulator.engine import _COMPACT_MIN_CANCELLED, ScheduledCallback


def test_post_and_schedule_interleave_fifo() -> None:
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "handle-a")
    sim._post(1.0, seen.append, "slim-b")
    sim.schedule(1.0, seen.append, "handle-c")
    sim._post(0.5, seen.append, "slim-first")
    sim.run()
    assert seen == ["slim-first", "handle-a", "slim-b", "handle-c"]


def test_timeout_uses_slim_entries_and_fires() -> None:
    sim = Simulator()

    def prog():
        value = yield sim.timeout(2.5, value="v")
        return value

    task = sim.spawn(prog())
    assert sim.run() == 2.5
    assert task.value == "v"
    assert not any(type(e[2]) is ScheduledCallback
                   for e in sim._queue)


def test_cancel_is_lazy_and_batched_compaction_kicks_in() -> None:
    sim = Simulator()
    fired = []
    total = 4 * _COMPACT_MIN_CANCELLED
    handles = [sim.schedule(10.0, fired.append, i) for i in range(total)]
    live = handles[:: 4]
    for handle in handles:
        if handle not in live:
            handle.cancel()
    # 3/4 cancelled -> the batched pass must have compacted the queue
    assert len(sim._queue) < total
    assert sim._cancelled < _COMPACT_MIN_CANCELLED
    sim.run()
    assert fired == [i for i in range(total) if i % 4 == 0]


def test_cancel_is_idempotent_in_the_counter() -> None:
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sim._cancelled == 1
    sim.run()
    assert sim._cancelled == 0


def test_run_until_sees_slim_entries() -> None:
    sim = Simulator()
    seen = []
    sim._post(1.0, seen.append, "early")
    sim._post(5.0, seen.append, "late")
    assert sim.run(until=2.0) == 2.0
    assert seen == ["early"]
    sim.run()
    assert seen == ["early", "late"]


class _RecordingMonitor:
    def __init__(self):
        self.scheduled = []
        self.steps = []

    def on_schedule(self, handle):
        self.scheduled.append(handle)

    def before_step(self, handle):
        self.steps.append(handle)

    def after_step(self, handle):
        pass


def test_post_degrades_to_handles_under_a_monitor() -> None:
    sim = Simulator()
    monitor = _RecordingMonitor()
    sim.monitor = monitor
    sim.timeout(1.0)          # goes through _post -> at()
    sim.schedule(2.0, lambda: None)
    assert len(monitor.scheduled) == 2
    assert all(type(h) is ScheduledCallback for h in monitor.scheduled)
    sim.run()
    assert len(monitor.steps) == 2


def test_monitored_and_bare_runs_order_identically() -> None:
    def drive(sim):
        seen = []

        def prog(tag, delay):
            yield sim.timeout(delay)
            seen.append(tag)
            yield sim.timeout(delay)
            seen.append(tag + "'")

        for i, delay in enumerate([0.3, 0.1, 0.2, 0.1]):
            sim.spawn(prog(f"t{i}", delay))
        sim.run()
        return seen

    bare = drive(Simulator())
    monitored_sim = Simulator()
    monitored_sim.monitor = _RecordingMonitor()
    assert drive(monitored_sim) == bare


def test_record_fast_path_toggles_with_trace() -> None:
    sim = Simulator()
    assert not sim.tracing
    sim.record("cat", a=1)            # must be a cheap no-op
    trace = Trace()
    sim.trace = trace
    assert sim.tracing
    sim.record("cat", a=1)
    sim.record("dog", b=2)
    assert len(trace) == 2
    sim.trace = None
    sim.record("cat", a=3)
    assert len(trace) == 2
