"""Unit tests for semaphores, mutexes, and channels."""

import pytest

from repro.simulator import Channel, Semaphore, SimulationError, Simulator


def test_semaphore_immediate_acquire():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    log = []

    def proc():
        yield sem.acquire()
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [0.0]
    assert sem.value == 1


def test_semaphore_blocks_until_release():
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    log = []

    def waiter():
        yield sem.acquire()
        log.append(sim.now)

    def releaser():
        yield sim.timeout(5.0)
        sem.release()

    sim.spawn(waiter())
    sim.spawn(releaser())
    sim.run()
    assert log == [5.0]


def test_semaphore_fifo_order():
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    order = []

    def waiter(name):
        yield sem.acquire()
        order.append(name)

    for name in "abc":
        sim.spawn(waiter(name))

    def releaser():
        yield sim.timeout(1.0)
        sem.release(3)

    sim.spawn(releaser())
    sim.run()
    assert order == ["a", "b", "c"]


def test_try_acquire():
    sim = Simulator()
    sem = Semaphore(sim, value=1)
    assert sem.try_acquire() is True
    assert sem.try_acquire() is False


def test_negative_initial_value_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Semaphore(sim, value=-1)


def test_channel_put_then_get():
    sim = Simulator()
    chan = Channel(sim)
    chan.put("x")
    got = []

    def getter():
        item = yield chan.get()
        got.append(item)

    sim.spawn(getter())
    sim.run()
    assert got == ["x"]


def test_channel_get_blocks_until_put():
    sim = Simulator()
    chan = Channel(sim)
    got = []

    def getter():
        item = yield chan.get()
        got.append((item, sim.now))

    def putter():
        yield sim.timeout(3.0)
        chan.put("late")

    sim.spawn(getter())
    sim.spawn(putter())
    sim.run()
    assert got == [("late", 3.0)]


def test_channel_preserves_fifo():
    sim = Simulator()
    chan = Channel(sim)
    for i in range(5):
        chan.put(i)
    got = []

    def getter():
        for _ in range(5):
            item = yield chan.get()
            got.append(item)

    sim.spawn(getter())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_channel_len_counts_unclaimed_items():
    sim = Simulator()
    chan = Channel(sim)
    assert len(chan) == 0
    chan.put(7)
    assert len(chan) == 1
    assert chan.get().value == 7     # an item is there: granted at once
    assert len(chan) == 0
