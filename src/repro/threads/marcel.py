"""Per-node core scheduler (the Marcel substitute).

Threads are simulator tasks.  A thread that wants CPU time must hold a
core: MPI rank main threads acquire one at startup and hold it while
computing or busy-polling; PIOMan's background worker grabs whatever
core is free.  When a PIOMan-enabled stack blocks a rank on a
completion semaphore, the rank *releases* its core — exactly the
mechanism the paper describes for replacing busy-wait loops
(Section 3.3.2).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.hardware.params import NodeParams
from repro.simulator import Semaphore, Simulator, Task
from repro.simulator.rng import rng_stream

__all__ = ["MarcelScheduler"]


class MarcelScheduler:
    """Core manager for one node.

    Example
    -------
    >>> from repro.simulator import Simulator
    >>> from repro.hardware.params import NodeParams
    >>> sim = Simulator()
    >>> sched = MarcelScheduler(sim, NodeParams(cores=2))
    >>> def worker():
    ...     yield sched.acquire_core()
    ...     yield from sched.compute(1e-3)
    ...     sched.release_core()
    >>> _ = sim.spawn(worker())
    >>> sim.run()
    0.001
    """

    def __init__(self, sim: Simulator, params: NodeParams, node_id: int = 0,
                 seed: int = 0):
        self.sim = sim
        self.params = params
        self.node_id = node_id
        self._cores = Semaphore(sim, params.cores)
        #: ``acquire_core()``: an Event that succeeds when a core is
        #: granted (FIFO order); ``try_acquire_core()``: take a free core
        #: if there is one, True on success; ``release_core()``: give
        #: one back.  Bound straight to the core semaphore, so the
        #: progress path pays no forwarding frame.
        self.acquire_core = self._cores.acquire
        self.try_acquire_core = self._cores.try_acquire
        self.release_core = self._cores.release
        self.threads_spawned = 0
        self._jitter_rng = (rng_stream(seed, "node-jitter", node_id)
                            if params.compute_jitter > 0.0 else None)

    # -- core ownership -------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.params.cores

    @property
    def idle_cores(self) -> int:
        """Cores not currently held by any thread."""
        return self._cores.value

    @property
    def waiting_for_core(self) -> int:
        return self._cores.waiting

    # -- running work -----------------------------------------------------
    def compute(self, duration: float) -> Generator:
        """Burn ``duration`` seconds of CPU.  Caller must hold a core.

        With ``compute_jitter`` configured, the duration is stretched by
        a reproducible per-node random factor (OS noise model).
        """
        if duration < 0:
            raise ValueError(f"negative compute duration {duration!r}")
        if self._jitter_rng is not None and duration > 0.0:
            duration *= 1.0 + self.params.compute_jitter * float(
                self._jitter_rng.random())
        if duration > 0.0:
            yield float(duration)

    def spawn(self, gen, name: str = "") -> Task:
        """Start a thread (bookkeeping wrapper over ``sim.spawn``)."""
        self.threads_spawned += 1
        return self.sim.spawn(gen, name=name or f"node{self.node_id}-thread")

    def flops_time(self, flops: float) -> float:
        """Seconds one core needs for ``flops`` floating-point operations."""
        return flops / self.params.flops_per_core
