"""Unit tests for events and the AnyOf combinator."""

import pytest

from repro.simulator import Simulator, SimulationError


def test_event_initially_pending():
    sim = Simulator()
    evt = sim.event()
    assert not evt.triggered
    assert not evt.ok


def test_succeed_carries_value():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(41)
    assert evt.triggered and evt.ok
    assert evt.value == 41


def test_double_succeed_rejected():
    sim = Simulator()
    evt = sim.event()
    evt.succeed()
    with pytest.raises(SimulationError):
        evt.succeed()


def test_fail_requires_exception():
    sim = Simulator()
    evt = sim.event()
    with pytest.raises(SimulationError):
        evt.fail("not an exception")


def test_callback_after_trigger_still_runs():
    sim = Simulator()
    evt = sim.event()
    evt.succeed("v")
    seen = []
    evt.add_done_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_timeout_value():
    sim = Simulator()
    evt = sim.timeout(1.0, value="hello")
    sim.run()
    assert evt.value == "hello"


def test_any_of_fires_on_first():
    sim = Simulator()
    e1, e2 = sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")
    combined = sim.any_of([e1, e2])
    done_at = []
    combined.add_done_callback(lambda e: done_at.append(sim.now))
    sim.run()
    assert combined.value == (1, "fast")
    assert done_at == [1.0]


def test_any_of_requires_children():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_any_of_propagates_failure():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    task = sim.spawn(failing())
    combined = sim.any_of([task, sim.timeout(10.0)])
    outcome = []
    combined.add_done_callback(lambda e: outcome.append((e.ok, e.value)))
    sim.run()
    assert outcome[0][0] is False
    assert isinstance(outcome[0][1], ValueError)
