"""Unit tests for the PIOMan manager."""

import pytest

from repro.hardware.params import NodeParams
from repro.pioman import PIOMan, PIOManParams
from repro.simulator import Simulator
from repro.threads import MarcelScheduler


def make_pioman(cores=2, **param_overrides):
    sim = Simulator()
    sched = MarcelScheduler(sim, NodeParams(cores=cores))
    params = PIOManParams(**param_overrides)
    return sim, sched, PIOMan(sim, sched, params)


def test_ltask_runs_in_background_with_idle_core():
    sim, sched, pm = make_pioman(cores=2, poll_period=1e-6, ltask_cost=0.1e-6)
    ran = []

    def work():
        yield sim.timeout(2e-6)
        ran.append(sim.now)

    pm.submit(work)
    sim.run()
    # poll_period + ltask_cost + work duration
    assert ran == [pytest.approx(3.1e-6)]
    assert pm.ltasks_run == 1


def test_ltask_waits_for_core_when_fully_loaded():
    sim, sched, pm = make_pioman(cores=1, poll_period=1e-6, ltask_cost=0.0)
    ran = []

    def hog():
        yield sched.acquire_core()
        yield from sched.compute(100e-6)
        sched.release_core()

    def work():
        ran.append(sim.now)
        yield sim.timeout(0)

    sched.spawn(hog())

    def submitter():
        yield sim.timeout(10e-6)
        pm.submit(work)

    sim.spawn(submitter())
    sim.run()
    # the worker could not start until the hog released its core at 100us
    assert ran[0] >= 100e-6


def test_ltasks_drain_in_fifo_order():
    sim, sched, pm = make_pioman()
    order = []

    def work(tag):
        def gen():
            order.append(tag)
            yield sim.timeout(0)
        return gen

    pm.submit(work("a"))
    pm.submit(work("b"))
    pm.submit(work("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_worker_restarts_after_drain():
    sim, sched, pm = make_pioman(poll_period=1e-6, ltask_cost=0.0)
    ran = []

    def work():
        ran.append(sim.now)
        yield sim.timeout(0)

    pm.submit(work)

    def late_submitter():
        yield sim.timeout(50e-6)
        pm.submit(work)

    sim.spawn(late_submitter())
    sim.run()
    assert len(ran) == 2
    assert ran[1] == pytest.approx(51e-6)


def test_semaphore_wait_releases_core():
    """A blocked waiter's core must be usable by the pioman worker."""
    sim, sched, pm = make_pioman(cores=1, poll_period=0.0, ltask_cost=0.0, wakeup_cost=0.0)
    log = []
    evt = sim.event()

    def app():
        yield sched.acquire_core()
        yield from pm.semaphore_wait(evt)
        log.append(("woke", sim.now))
        sched.release_core()

    def work():
        log.append(("ltask", sim.now))
        evt.succeed()
        yield sim.timeout(0)

    sched.spawn(app())

    def submitter():
        yield sim.timeout(5e-6)
        pm.submit(work)

    sim.spawn(submitter())
    sim.run()
    # With only one core, the ltask could only run because app released it.
    assert log[0] == ("ltask", pytest.approx(5e-6))
    assert log[1][0] == "woke"


def test_semaphore_wait_on_triggered_event_returns_fast():
    sim, sched, pm = make_pioman(cores=1)
    evt = sim.event()
    evt.succeed()
    done = []

    def app():
        yield sched.acquire_core()
        yield from pm.semaphore_wait(evt)
        done.append(sim.now)
        sched.release_core()

    sched.spawn(app())
    sim.run()
    assert done == [0.0]


def test_wakeup_cost_charged():
    sim, sched, pm = make_pioman(cores=2, wakeup_cost=1e-6)
    evt = sim.event()
    done = []

    def app():
        yield sched.acquire_core()
        yield from pm.semaphore_wait(evt)
        done.append(sim.now)
        sched.release_core()

    sched.spawn(app())
    sim.schedule(10e-6, evt.succeed)
    sim.run()
    assert done == [pytest.approx(11e-6)]


# ---------------------------------------------------------------------------
# engine-contract edge cases exposed by the pluggable refactor
# ---------------------------------------------------------------------------

def make_engine_under_test(kind, cores=2, **param_overrides):
    from repro.pioman import make_engine

    sim = Simulator()
    sched = MarcelScheduler(sim, NodeParams(cores=cores))
    params = PIOManParams(**param_overrides)
    return sim, sched, make_engine(kind, sim, sched, params)


def test_manual_poll_empty_queue_progress_completes():
    """Polling an empty ltask queue must terminate without charges."""
    sim, sched, engine = make_engine_under_test("manual_poll")
    done = []

    def app():
        yield sim.timeout(1e-6)
        yield from engine.progress()
        done.append(sim.now)

    sim.spawn(app())
    sim.run()
    # no queued work -> no ltask_cost, no sync region, no time passes
    assert done == [pytest.approx(1e-6)]
    assert engine.ltasks_run == 0


def test_manual_poll_semaphore_wait_empty_queue_blocks_until_event():
    sim, sched, engine = make_engine_under_test("manual_poll")
    evt = sim.event()
    woke = []

    def app():
        yield sched.acquire_core()
        yield from engine.semaphore_wait(evt)
        woke.append(sim.now)
        sched.release_core()

    sched.spawn(app())
    sim.schedule(7e-6, evt.succeed)
    sim.run()
    # no wakeup_cost in manual mode: the waiter was spinning, not parked
    assert woke == [pytest.approx(7e-6)]


def test_dedicated_completion_during_steal():
    """An ltask stolen from another rank's queue completes a waiter while
    the worker is still draining; nothing is lost or run twice."""
    sim, sched, engine = make_engine_under_test(
        "dedicated_thread", cores=2, ltask_cost=0.1e-6, wakeup_cost=0.05e-6)
    evt = sim.event()
    log = []

    def slow_ltask():
        log.append(("slow", sim.now))
        yield sim.timeout(5e-6)

    def completing_ltask():
        log.append(("complete", sim.now))
        evt.succeed()
        yield sim.timeout(0)

    def trailing_ltask():
        log.append(("trail", sim.now))
        yield sim.timeout(0)

    def app():
        yield sched.acquire_core()
        engine.submit(slow_ltask, rank=0)
        engine.submit(completing_ltask, rank=1)   # stolen mid-drain
        engine.submit(trailing_ltask, rank=0)
        yield from engine.semaphore_wait(evt)
        log.append(("woke", sim.now))
        sched.release_core()

    sched.spawn(app())
    sim.run()
    # rank 0's queue drains FIFO first, then the worker steals rank 1's
    # completing ltask, which wakes the parked waiter
    assert [tag for tag, _ in log] == ["slow", "trail", "complete", "woke"]
    assert engine.ltasks_run == 3
    assert engine.steals >= 1                    # rank 1's queue was robbed
    woke_at = dict((tag, t) for tag, t in log)["woke"]
    completed_at = dict((tag, t) for tag, t in log)["complete"]
    assert woke_at == pytest.approx(completed_at + 0.05e-6)  # wakeup_cost


def test_manual_poll_two_waiters_share_the_arrival_signal():
    """Regression: two threads parked in semaphore_wait on the same
    node engine must both wake on a submit — a fresh signal per waiter
    orphans the earlier one (deadlock with several ranks per node)."""
    sim, sched, engine = make_engine_under_test("manual_poll", cores=4)
    evts = [sim.event(), sim.event()]
    woke = []

    def waiter(i):
        yield sched.acquire_core()
        yield from engine.semaphore_wait(evts[i])
        woke.append(i)
        sched.release_core()

    def completer(i):
        def gen():
            evts[i].succeed()
            yield sim.timeout(0)
        return gen

    sched.spawn(waiter(0))
    sched.spawn(waiter(1))
    # complete waiter 1 first, then waiter 0: each submit must reach
    # whichever waiters are parked at that moment
    sim.schedule(2e-6, engine.submit, completer(1))
    sim.schedule(4e-6, engine.submit, completer(0))
    sim.run()
    assert sorted(woke) == [0, 1]
