"""Unit tests for the discrete-event engine."""

import pytest

from repro.analysis.race import RaceDetector
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


_NAN = float("nan")


@pytest.mark.parametrize("push", [
    lambda sim: sim.schedule(_NAN, lambda: None),
    lambda sim: sim.at(_NAN, lambda: None),
    lambda sim: sim.timeout(_NAN),
    lambda sim: sim.timeout_at(_NAN),
    lambda sim: sim.charge(_NAN, 1.0),
    lambda sim: sim.charge(1.0, _NAN),
], ids=["schedule", "at", "timeout", "timeout_at", "charge_first",
        "charge_second"])
@pytest.mark.parametrize("monitored", [False, True],
                         ids=["bare", "monitored"])
def test_nan_never_enters_the_queue(push, monitored):
    sim = Simulator()
    if monitored:
        RaceDetector().install(sim)
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        push(sim)
    assert len(sim._queue) == 1
    assert sim.run() == 1.0           # the clock never reads NaN


def test_timeout_at_in_past_and_negative_charge_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="past"):
        sim.timeout_at(1.0)
    with pytest.raises(SimulationError, match="negative"):
        sim.charge(1.0, -1.0)
    assert not sim._queue


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
# scheduler re-entry: callbacks run inside run() and must not drive it
# ---------------------------------------------------------------------------

def _reentering(sim, until):
    def reenter(*_args):
        sim.run(until=until)
    return reenter


#: the re-entering call and the driving call: the unbounded loop or
#: the ``until``-bounded one
_LOOPS = {"run": None, "until": 5.0}


@pytest.mark.parametrize("call", sorted(_LOOPS))
@pytest.mark.parametrize("driver", sorted(_LOOPS))
def test_subscriber_reentering_the_scheduler_raises(call, driver):
    trace = Trace()
    sim = Simulator(trace)
    trace.subscribe(_reentering(sim, _LOOPS[call]))
    sim.schedule(1.0, lambda: sim.record("nic.tx", size=4))
    sim.schedule(2.0, lambda: sim.record("nic.tx", size=4))
    # the scheduler's own error is not a subscriber fault: it propagates
    # out of the dispatch, as it does from a done-callback
    with pytest.raises(SimulationError, match=r"Simulator\.run\(\) "
                                              r"re-entered while Simulator"
                                              r"\.run\(\) is "
                                              r"dispatching at t=1\.0"):
        sim.run(until=_LOOPS[driver])
    assert trace.subscriber_errors == [] and len(trace) == 1


@pytest.mark.parametrize("call", sorted(_LOOPS))
def test_done_callback_reentering_the_scheduler_raises(call):
    sim = Simulator()
    evt = sim.timeout(1.0)
    evt.add_done_callback(_reentering(sim, _LOOPS[call]))
    with pytest.raises(SimulationError, match=r"Simulator\.run\(\) "
                                              r"re-entered .* at t=1\.0"):
        sim.run(until=5.0)


def test_run_after_run_is_not_reentry():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 1.0
    sim.schedule(1.0, lambda: None)
    sim.at(3.0, lambda: None)
    assert sim.run(until=2.5) == 2.5
    assert sim.run() == 3.0
