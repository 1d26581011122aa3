"""Unit tests for the discrete-event engine."""

import pytest

from repro.simulator import Simulator, SimulationError, Trace
from repro.simulator.errors import DeadlockError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_callback_at_right_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_schedule_order_is_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, seen.append, "c")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_fifo():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_cancelled_callback_does_not_run():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(10.0, seen.append, "b")
    final = sim.run(until=5.0)
    assert final == 5.0
    assert seen == ["a"]
    # continuing the run executes the rest
    sim.run()
    assert seen == ["a", "b"]


def test_run_until_never_moves_the_clock_backwards():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    assert sim.run(until=2.0) == 2.0
    # an earlier bound with work still queued must not rewind the clock
    assert sim.run(until=0.5) == 2.0
    assert sim.now == 2.0
    sim.schedule(0.0, seen.append, "now")       # would raise if now < 2.0
    sim.run()
    assert seen == ["now", "late"]


def test_until_bounded_run_with_work_pending_is_not_a_deadlock():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(10.0)

    task = sim.spawn(sleeper())
    # the task is blocked, but on a timer that is still queued
    assert sim.run(until=1.0, detect_deadlock=True) == 1.0
    assert task.is_alive
    assert sim.run(detect_deadlock=True) == 10.0
    assert not task.is_alive


def test_run_returns_final_time():
    sim = Simulator()
    sim.schedule(7.25, lambda: None)
    assert sim.run() == 7.25


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(1.0, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(2.0, outer)
    sim.run()
    assert seen == [("outer", 2.0), ("inner", 3.0)]


def test_deadlock_detection():
    sim = Simulator()

    def stuck():
        yield sim.event()  # nobody will trigger this

    sim.spawn(stuck())
    with pytest.raises(DeadlockError):
        sim.run(detect_deadlock=True)


def test_no_deadlock_when_tasks_finish():
    sim = Simulator()

    def fine():
        yield sim.timeout(1.0)

    sim.spawn(fine())
    sim.run(detect_deadlock=True)


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_raising_callback_leaves_the_rest_queued():
    sim = Simulator()
    seen = []

    def boom():
        seen.append("boom")
        raise RuntimeError("callback failed")

    sim.schedule(1.0, seen.append, "a")
    sim.schedule(1.0, boom)
    sim.schedule(1.0, seen.append, "b")          # same timestamp, later seq
    sim.schedule(2.0, seen.append, "d")
    sim.schedule(1.0, seen.append, "c")
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run()
    assert seen == ["a", "boom"]
    assert sim.now == 1.0
    assert len(sim._queue) == 3
    assert sim.run() == 2.0
    assert seen == ["a", "boom", "b", "c", "d"]


# ---------------------------------------------------------------------------
# scheduler re-entry: callbacks run inside run()/step() and must not drive it
# ---------------------------------------------------------------------------

def _reentering(sim, call):
    def reenter(*_args):
        getattr(sim, call)()
    return reenter


@pytest.mark.parametrize("call", ["run", "step"])
@pytest.mark.parametrize("driver", ["run", "step"])
def test_subscriber_reentering_the_scheduler_raises(call, driver):
    trace = Trace()
    sim = Simulator(trace)
    trace.subscribe(_reentering(sim, call))
    sim.schedule(1.0, lambda: sim.record("nic.tx", size=4))
    sim.schedule(2.0, lambda: sim.record("nic.tx", size=4))
    # the scheduler's own error is not a subscriber fault: it propagates
    # out of the dispatch, as it does from a done-callback
    with pytest.raises(SimulationError, match=rf"Simulator\.{call}\(\) "
                                              rf"re-entered while Simulator"
                                              rf"\.{driver}\(\) is "
                                              r"dispatching at t=1\.0"):
        getattr(sim, driver)()
    assert trace.subscriber_errors == [] and len(trace) == 1


@pytest.mark.parametrize("call", ["run", "step"])
def test_done_callback_reentering_the_scheduler_raises(call):
    sim = Simulator()
    evt = sim.timeout(1.0)
    evt.add_done_callback(_reentering(sim, call))
    with pytest.raises(SimulationError, match=rf"Simulator\.{call}\(\) "
                                              r"re-entered .* at t=1\.0"):
        sim.run(until=5.0)


def test_run_after_run_is_not_reentry():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 1.0
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.run() == 2.0
