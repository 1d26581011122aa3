"""Direct unit tests of the progress-engine base class."""

import pytest

from repro.hardware.params import NodeParams
from repro.hardware.topology import Node
from repro.mpich2.request import MPIRequest
from repro.mpich2.stackbase import BaseStack
from repro.pioman import PIOMan, PIOManParams
from repro.simulator import Simulator
from repro.threads.marcel import MarcelScheduler


class StubStack(BaseStack):
    """Records handled items; completes requests on demand."""

    def __init__(self, sim, scheduler, pioman=None, handle_cost=1e-6):
        node = Node(sim, 0, NodeParams())
        super().__init__(sim, 0, node, scheduler, pioman=pioman)
        self.handled = []
        self.handle_cost = handle_cost
        self.hook_runs = 0

    def _handle_item(self, item):
        yield self.sim.timeout(self.handle_cost)
        self.handled.append((self.sim.now, item))
        if isinstance(item, tuple) and item[0] == "complete":
            item[1]._finish(self.sim)

    def _progress_hook(self):
        self.hook_runs += 1
        return
        yield


def build(pioman=False):
    sim = Simulator()
    sched = MarcelScheduler(sim, NodeParams(cores=4))
    pm = PIOMan(sim, sched, PIOManParams()) if pioman else None
    return sim, sched, StubStack(sim, sched, pioman=pm)


def test_active_mode_defers_items_until_wait():
    sim, sched, stack = build()
    stack.deliver(("noop", 1))
    stack.deliver(("noop", 2))
    sim.run()
    assert stack.handled == []      # nothing runs outside the library
    assert len(stack.inbox) == 2


def test_wait_drains_inbox_and_completes():
    sim, sched, stack = build()
    req = MPIRequest(sim, "recv", 1, "t")
    stack.deliver(("noop", 1))
    stack.deliver(("complete", req))

    def app():
        yield sched.acquire_core()
        yield from stack.wait(req)
        sched.release_core()
        return sim.now

    task = sim.spawn(app())
    sim.run()
    assert req.complete
    assert len(stack.handled) == 2
    assert task.value == pytest.approx(2e-6)  # two items x handle_cost


def test_wait_wakes_on_late_delivery():
    sim, sched, stack = build()
    req = MPIRequest(sim, "recv", 1, "t")

    def app():
        yield sched.acquire_core()
        yield from stack.wait(req)
        sched.release_core()
        return sim.now

    task = sim.spawn(app())
    sim.schedule(50e-6, stack.deliver, ("complete", req))
    sim.run()
    assert task.value == pytest.approx(51e-6)


def test_wait_on_completed_request_is_cheap():
    sim, sched, stack = build()
    req = MPIRequest(sim, "recv", 1, "t")
    req._finish(sim)

    def app():
        yield sched.acquire_core()
        yield from stack.wait(req)
        sched.release_core()
        return sim.now

    task = sim.spawn(app())
    sim.run()
    assert task.value == 0.0


def test_pioman_mode_processes_in_background():
    sim, sched, stack = build(pioman=True)
    stack.deliver(("noop", 1))
    sim.run()
    assert len(stack.handled) == 1   # no application thread needed


def test_hook_runs_after_each_progress_step():
    sim, sched, stack = build(pioman=True)
    stack.deliver(("noop", 1))
    stack.deliver(("noop", 2))
    sim.run()
    assert stack.hook_runs == 2


def test_waitall_handles_mixed_completion_order():
    sim, sched, stack = build()
    reqs = [MPIRequest(sim, "recv", 1, i) for i in range(3)]

    def app():
        yield sched.acquire_core()
        yield from stack.waitall(reqs)
        sched.release_core()
        return sim.now

    task = sim.spawn(app())
    # complete out of order, spread over time
    sim.schedule(30e-6, stack.deliver, ("complete", reqs[2]))
    sim.schedule(10e-6, stack.deliver, ("complete", reqs[0]))
    sim.schedule(20e-6, stack.deliver, ("complete", reqs[1]))
    sim.run()
    assert all(r.complete for r in reqs)
    assert task.value >= 30e-6


def test_base_handle_item_abstract():
    sim, sched, _ = build()
    node = Node(sim, 0, NodeParams())
    bare = BaseStack(sim, 0, node, sched)
    bare.deliver("x")

    def app():
        yield sched.acquire_core()
        yield from bare._drain()

    sim.spawn(app())
    with pytest.raises(NotImplementedError):
        sim.run()
