"""Per-message objects die by reference counting.

A request, a frame, a packet wrapper or an event allocated for one
message must be freed as soon as the last reference to it goes, not
left in a reference cycle for CPython's cyclic collector to find: that
garbage triggers collector passes whose time lands on whatever
function happens to allocate (DESIGN.md §7 "No reference cycle through
a per-message object").

Each case counts the cyclic garbage a run leaves, as the objects
``gc.collect(0)`` finds unreachable right after the run, with the
collector disabled during the run and the runtime still alive (so
whatever the runtime keeps is reachable, not garbage).  With no pass
during the run, everything the run allocated is still in the youngest
generation, and a collection of that generation alone sees exactly it
(the one before the run empties it of older garbage).  The per-message
figure is the long run minus the short run, so start-up and teardown
cancel; it must be 0.

A NIC keeps no frame it has handed to its ``rx_notify`` callback: after
an MPI run every receive queue is empty, so delivered frames do not
accumulate over a run.
"""

from __future__ import annotations

import gc
from typing import Callable

import pytest

from repro import config
from repro.runtime import MPIRuntime
from repro.simulator import Channel
from repro.workloads.netpipe import pingpong

KiB = 1024
_ROUNDS = (2, 6)    # short run, long run

#: path -> (message size, ranks per node)
_PATHS = {
    "256B": (256, 1),
    "64KiB": (64 * KiB, 1),
    "256B_intra": (256, 2),
}


def _garbage(make_runtime: Callable[[], MPIRuntime], program) -> int:
    """Cyclic garbage left by one run of ``program``."""
    runtime = make_runtime()
    gc.collect(0)
    gc.disable()
    try:
        runtime.run(program)
        return gc.collect(0)
    finally:
        gc.enable()


def _per_op(make_runtime: Callable[[], MPIRuntime],
            make_program: Callable[[int], object],
            ops_per_round: int) -> float:
    """Cyclic garbage per op: long run minus short run."""
    _garbage(make_runtime, make_program(1))    # first-use imports and caches
    short, long = (_garbage(make_runtime, make_program(r)) for r in _ROUNDS)
    return (long - short) / ((_ROUNDS[1] - _ROUNDS[0]) * ops_per_round)


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("preset", sorted(config.STACKS))
def test_pingpong_leaves_no_cyclic_garbage(preset: str, path: str) -> None:
    size, ranks_per_node = _PATHS[path]

    def make_runtime() -> MPIRuntime:
        return MPIRuntime(2, config.stack(preset), cluster=config.xeon_pair(),
                          ranks_per_node=ranks_per_node)

    per_message = _per_op(
        make_runtime, lambda r: pingpong(size, reps=r, warmup=0), 2)
    assert per_message == 0.0, (
        f"{preset}/{path}: {per_message} cyclic garbage objects per message")


def test_allreduce_p8_leaves_no_cyclic_garbage() -> None:
    def make_runtime() -> MPIRuntime:
        return MPIRuntime(8, config.mpich2_nmad(), cluster=config.grid5000(8))

    def allreduces(rounds: int):
        def program(comm):
            for _ in range(rounds):
                yield from comm.allreduce(8, value=comm.rank)
        return program

    per_call = _per_op(make_runtime, allreduces, 1)
    assert per_call == 0.0, f"{per_call} cyclic garbage objects per allreduce"


@pytest.mark.parametrize("preset", sorted(config.STACKS))
def test_nics_keep_no_delivered_frame(preset: str) -> None:
    runtime = MPIRuntime(2, config.stack(preset), cluster=config.xeon_pair())
    runtime.run(pingpong(64 * KiB, reps=2, warmup=1))
    nics = [nic for node in runtime.cluster.nodes
            for nic in node.nics.values()]
    assert sum(nic.rx_frames for nic in nics) > 0
    # every NIC is notified, so none builds the receive queue it never reads
    assert not [nic for nic in nics
                if any(isinstance(v, Channel) for v in vars(nic).values())]
    assert [len(nic.rx_queue) for nic in nics] == [0] * len(nics)
