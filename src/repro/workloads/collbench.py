"""Collective micro-benchmark (OSU-style, one collective per run).

Times ``reps`` back-to-back invocations of one collective at one
message size after ``warmup`` untimed rounds, with every rank's clock
started by a preliminary sync so stragglers count.  The reported
``per_op`` is the *slowest* rank's mean — the completion time an
application would observe.

``algorithm`` forces one registered implementation through
:func:`repro.coll.selector.forced`; ``None`` exercises the selection
table (what real applications get).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.coll import selector
from repro.config import ClusterSpec, StackSpec
from repro.mpi.collectives import barrier_dissemination
from repro.runtime import run_mpi
from repro.simulator.tracing import Trace

#: collectives the bench knows how to drive (timing-only payloads)
BENCHABLE = ("barrier", "bcast", "reduce", "allreduce", "allgather",
             "alltoall")


@dataclass
class CollbenchResult:
    """One (collective, size) measurement under one stack."""

    stack: str
    collective: str
    algorithm: str            # resolved name actually run
    nprocs: int
    size: int
    per_op: float             # slowest rank's mean seconds per operation
    elapsed: float            # full simulated run (incl. warmup + sync)


def _one_op(comm, collective: str, size: int):
    if collective == "barrier":
        yield from comm.barrier()
    elif collective == "bcast":
        yield from comm.bcast(size)
    elif collective == "reduce":
        yield from comm.reduce(size)
    elif collective == "allreduce":
        yield from comm.allreduce(size)
    elif collective == "allgather":
        yield from comm.allgather(size)
    elif collective == "alltoall":
        yield from comm.alltoall(size)
    else:
        raise ValueError(f"unknown collective {collective!r}; "
                         f"benchable: {', '.join(BENCHABLE)}")


def collbench(collective: str, size: int, reps: int, warmup: int):
    """Rank program: returns this rank's mean seconds per operation."""

    def program(comm):
        for _ in range(warmup):
            yield from _one_op(comm, collective, size)
        # sync outside the measured region (and outside dispatch, so a
        # forced barrier algorithm is not perturbed by the sync itself)
        yield from barrier_dissemination(comm)
        t0 = comm.sim.now
        for _ in range(reps):
            yield from _one_op(comm, collective, size)
        return (comm.sim.now - t0) / reps

    return program


def run_collbench(stack: StackSpec, nprocs: int, collective: str, size: int,
                  algorithm: Optional[str] = None, reps: int = 5,
                  warmup: int = 2, cluster: Optional[ClusterSpec] = None,
                  trace: Optional[Trace] = None,
                  seed: int = 0) -> CollbenchResult:
    """Measure one collective at one size (one rank per node by default)."""
    resolved = (algorithm if algorithm is not None
                else selector.choose(collective, nprocs, size))

    def execute():
        return run_mpi(collbench(collective, size, reps, warmup),
                       nprocs, stack, cluster=cluster, trace=trace,
                       seed=seed)

    if algorithm is not None:
        with selector.forced(collective, algorithm):
            r = execute()
    else:
        r = execute()
    per_op = max(r.result(rank) for rank in range(nprocs))
    return CollbenchResult(stack=stack.name, collective=collective,
                           algorithm=resolved, nprocs=nprocs, size=size,
                           per_op=per_op, elapsed=r.elapsed)
