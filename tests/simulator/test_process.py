"""Unit tests for tasks (generator coroutines)."""

import pytest

from repro.simulator import Simulator, SimulationError
from repro.simulator.errors import Interrupt


def test_task_advances_time():
    sim = Simulator()
    log = []

    def proc():
        log.append(sim.now)
        yield sim.timeout(2.0)
        log.append(sim.now)
        yield sim.timeout(3.0)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [0.0, 2.0, 5.0]


def test_task_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 99

    task = sim.spawn(proc())
    sim.run()
    assert task.value == 99


def test_join_task():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "result"

    def parent():
        value = yield sim.spawn(child())
        return (sim.now, value)

    task = sim.spawn(parent())
    sim.run()
    assert task.value == (4.0, "result")


def test_two_tasks_interleave():
    sim = Simulator()
    log = []

    def proc(name, step):
        for _ in range(3):
            yield sim.timeout(step)
            log.append((name, sim.now))

    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 1.5))
    sim.run()
    # At t=3.0 both wake; b's timeout was scheduled earlier (at t=1.5)
    # so FIFO tie-breaking wakes b first.
    assert log == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0), ("b", 4.5),
    ]


def test_spawn_does_not_run_synchronously():
    sim = Simulator()
    log = []

    def child():
        log.append("child")
        yield sim.timeout(0.0)

    def parent():
        sim.spawn(child())
        log.append("parent-after-spawn")
        yield sim.timeout(0.0)

    sim.spawn(parent())
    sim.run()
    assert log[0] == "parent-after-spawn"


def test_unhandled_task_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("explode")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="explode"):
        sim.run()


def test_joined_task_exception_rethrown_in_parent():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield sim.spawn(bad())
        except ValueError as err:
            return f"caught {err}"

    task = sim.spawn(parent())
    sim.run()
    assert task.value == "caught inner"


def test_yielding_non_event_fails_task():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError, match="must yield Events"):
        sim.run()


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_generator():
        return 5

    with pytest.raises(SimulationError, match="needs a generator"):
        sim.spawn(not_a_generator)


def test_interrupt_wakes_blocked_task():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    task = sim.spawn(sleeper())

    def interrupter():
        yield sim.timeout(2.0)
        task.interrupt("wake up")

    sim.spawn(interrupter())
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_task_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    task = sim.spawn(quick())
    sim.run()
    with pytest.raises(SimulationError):
        task.interrupt()


def test_stale_event_after_interrupt_is_ignored():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            pass
        yield sim.timeout(100.0)
        log.append(sim.now)

    task = sim.spawn(sleeper())

    def interrupter():
        yield sim.timeout(1.0)
        task.interrupt()

    sim.spawn(interrupter())
    sim.run()
    # The original 10.0 timeout firing must not resume the task early:
    # it continues sleeping its 100s from t=1.
    assert log == [101.0]


def test_is_alive():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    task = sim.spawn(quick())
    assert task.is_alive
    sim.run()
    assert not task.is_alive


# ----------------------------------------------------------------------
# float delays: a CPU charge is one heap entry
# ----------------------------------------------------------------------
def test_float_delay_resumes_at_the_deadline_with_none():
    sim = Simulator()
    log = []

    def proc():
        got = yield 1.5
        log.append((sim.now, got))
        got = yield 0.0
        log.append((sim.now, got))

    sim.spawn(proc())
    sim.run()
    assert log == [(1.5, None), (1.5, None)]


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_bad_float_delay_raises_at_the_yield(delay):
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield delay
        except SimulationError as err:
            caught.append((sim.now, str(err)))
        yield 2.0
        return "recovered"

    task = sim.spawn(proc())
    sim.run()
    assert task.value == "recovered" and sim.now == 2.0
    assert len(caught) == 1 and caught[0][0] == 0.0
    assert "non-negative float" in caught[0][1]


def test_uncaught_bad_float_delay_fails_the_task():
    sim = Simulator()

    def proc():
        yield -0.5

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="non-negative float"):
        sim.run()


@pytest.mark.parametrize("target", [1, True])
def test_int_and_bool_are_not_delays(target):
    sim = Simulator()

    def proc():
        yield target

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="must yield Events"):
        sim.run()


def test_interrupting_a_float_sleep_ignores_the_stale_wake_up():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 10.0
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield 100.0
        log.append(("woke", sim.now))

    task = sim.spawn(sleeper())

    def interrupter():
        yield 1.0
        task.interrupt("now")

    sim.spawn(interrupter())
    sim.run()
    # the wake-up due at t=10 is stale: the task sleeps 100 s from t=1
    assert log == [("interrupted", 1.0, "now"), ("woke", 101.0)]
