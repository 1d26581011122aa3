"""The engine's hot-path machinery: one entry shape, monitors, tracing.

These pin the behaviours the benchmark-driven rewrites introduced:

* every push site builds one ``(time, seq, fn, args)`` entry and
  returns nothing, and ``schedule`` / ``at`` / ``_post`` interleave in
  strict ``(time, seq)`` order (FIFO at equal times);
* with a monitor installed each entry becomes a slice,
  ``(time, seq, sim._slice, (handle,))``, so happens-before edges
  survive;
* ``record`` is a no-op without a trace and appends with one.
"""

from __future__ import annotations

from repro.simulator import Simulator, Trace
from repro.simulator.engine import ScheduledCallback


def test_post_and_schedule_interleave_fifo() -> None:
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "sched-a")
    sim._post(1.0, seen.append, "post-b")
    sim.at(1.0, seen.append, "at-c")
    sim._post(0.5, seen.append, "post-first")
    sim.run()
    assert seen == ["post-first", "sched-a", "post-b", "at-c"]


def test_every_push_site_builds_one_entry_shape() -> None:
    sim = Simulator()

    def prog():
        yield 1.5                       # a bare delay: Task._wake
        yield sim.timeout(0.0)

    assert sim.schedule(1.0, print) is None
    assert sim.at(2.0, print, "x") is None
    assert sim._post(0.5, print) is None
    sim.timeout(3.0)
    sim.timeout_at(4.0)
    sim.charge(1e-6, 2e-6)
    task = sim.spawn(prog())
    sim.run(until=0.0)                  # the task starts and sleeps
    assert len(sim._queue) == 7
    for entry in sim._queue:
        time, seq, fn, args = entry
        assert type(time) is float and type(seq) is int
        assert callable(fn) and type(args) is tuple
        assert not any(type(a) is ScheduledCallback for a in args)
    assert (1.5, task._wake, ()) in [(t, fn, args)
                                     for t, _, fn, args in sim._queue]


def test_timeout_fires() -> None:
    sim = Simulator()

    def prog():
        value = yield sim.timeout(2.5, value="v")
        return value

    task = sim.spawn(prog())
    assert sim.run() == 2.5
    assert task.value == "v"


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


def test_entries_become_slices_under_a_monitor() -> None:
    sim = Simulator()
    monitor = _RecordingMonitor()
    sim.monitor = monitor
    sim.timeout(1.0)          # goes through _post
    sim.schedule(2.0, lambda: None)
    sim.at(3.0, lambda: None)
    sim.timeout_at(4.0)
    assert len(monitor.scheduled) == 4
    assert all(type(h) is ScheduledCallback for h in monitor.scheduled)
    assert [(fn, args) for _, _, fn, args in sorted(sim._queue)] == [
        (sim._slice, (h,)) for h in monitor.scheduled]
    sim.run()
    assert monitor.steps == monitor.scheduled
    assert sim.perf_stats()["batches_executed"] == 4


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
