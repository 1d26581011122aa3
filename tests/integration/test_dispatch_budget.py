"""Queue dispatches per message: the host-side budget of the stack.

Every dispatched queue entry costs the host the same few microseconds
whatever it simulates, so "entries per MPI message" is the simulator's
own per-message constant — the analogue of the per-layer nanoseconds the
paper counts.  These tests pin it exactly: the *marginal*
``events_executed`` of one more message (long run minus short run, so
start-up and teardown cancel), with no timing anywhere.  A new hop on
the message path — a timer that re-posts its sleeper, a wait that laps
once more, an unfused CPU charge — is a one-line diff here.

DESIGN.md §7 "dispatches per message" lists where each entry comes from.
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro import config
from repro.runtime import MPIRuntime
from repro.workloads.netpipe import pingpong

KiB, MiB = 1024, 1024 * 1024
_SHORT, _LONG = 6, 16


def _pingpong(size: int) -> Callable:
    """Round trips of ``size`` bytes: two messages per round."""
    return lambda rounds: pingpong(size, reps=rounds, warmup=0)


def _barriers(rounds: int):
    def program(comm):
        for _ in range(rounds):
            yield from comm.barrier()
    return program


def _marginal(nprocs: int, make_spec: Callable, make_cluster: Callable,
              make_program: Callable, ops_per_round: int) -> float:
    """Dispatched entries per op, from two runs of different length."""
    executed = []
    for rounds in (_SHORT, _LONG):
        runtime = MPIRuntime(nprocs, make_spec(), cluster=make_cluster())
        runtime.run(make_program(rounds))
        executed.append(runtime.sim.events_executed)
    return (executed[1] - executed[0]) / ((_LONG - _SHORT) * ops_per_round)


_CASES = {
    # one eager message: 7 CPU/NIC timers, 1 wire delivery, 2 wait wake-ups
    "eager_256B_ib": (
        10, 2, config.mpich2_nmad, config.xeon_pair, _pingpong(256), 2),
    # RTS + CTS + data: three frames instead of one
    "rdv_1MiB_ib": (
        19, 2, config.mpich2_nmad, config.xeon_pair, _pingpong(1 * MiB), 2),
    # data striped over two rails, every handler an ltask on a Marcel core
    "rdv_1MiB_ib_mx_pioman": (
        40, 2,
        lambda: config.mpich2_nmad_pioman(rails=("ib", "mx"),
                                          progress="pioman"),
        config.xeon_pair, _pingpong(1 * MiB), 2),
    # dissemination barrier: 2 rounds x 4 ranks = 8 eager messages
    "barrier_p4": (
        80, 4, config.mpich2_nmad, lambda: config.grid5000(4), _barriers, 1),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_dispatches_per_op_are_pinned(case: str) -> None:
    budget, nprocs, make_spec, make_cluster, make_program, ops = _CASES[case]
    assert _marginal(nprocs, make_spec, make_cluster, make_program,
                     ops) == budget
