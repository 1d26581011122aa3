"""Canned race-detector runs over the simulated MPI stacks.

``run_race`` wires a :class:`~repro.analysis.race.detector.RaceDetector`
into a freshly built :class:`~repro.runtime.builder.MPIRuntime` *before*
the job starts (the monitor must see every schedule from t=0), watches
the runtime's shared containers
(:func:`~repro.analysis.race.watch.watch_runtime`) and runs a small
inter-node ping-pong — the workload that exercises every shared
structure the detector watches: posted/unexpected queues, the strategy
window and driver submission state.

``run_racy_demo`` is the deliberately broken counterpart: the same run
plus a rogue callback that peeks at rank 1's posted-request list with
no synchronization at all — the bug class the detector exists to catch.
It must always report at least one race.
"""

from __future__ import annotations

from typing import Optional

from repro import config
from repro.analysis.race.detector import RaceDetector, RaceReport
from repro.analysis.race.watch import watch_runtime
from repro.config import ClusterSpec, StackSpec
from repro.runtime.builder import MPIRuntime
from repro.workloads.netpipe import pingpong


def run_race(spec: StackSpec, *, size: int = 65536, reps: int = 3,
             seed: int = 0, nprocs: int = 2,
             cluster: Optional[ClusterSpec] = None) -> RaceReport:
    """Run a ping-pong under the race detector; return its report.

    ``cluster`` defaults to the two-node point-to-point testbed; pass a
    topology-bearing :class:`~repro.config.ClusterSpec` to put the
    routed-fabric link traversal (and its congestion-feedback writes)
    under happens-before tracking too.

    The run is kept deliberately small: happens-before tracking keeps a
    vector-clock entry per execution context, so this mode is meant for
    smoke-sized scenarios, not sweeps (see docs/ANALYSIS.md).
    """
    detector = RaceDetector()
    runtime = MPIRuntime(nprocs, spec,
                         cluster=cluster if cluster is not None
                         else config.xeon_pair(),
                         seed=seed)
    detector.install(runtime.sim)
    watch_runtime(detector, runtime)
    runtime.run(pingpong(size, reps=reps, warmup=0))
    return detector.report()


def run_racy_demo(*, size: int = 4096, reps: int = 2,
                  seed: int = 0) -> RaceReport:
    """A seeded true positive: unsynchronized reads of shared state.

    Eight plain callbacks spread across the start of the run read rank
    1's NewMadeleine posted-request list without entering the node's
    progress-lock region — exactly what a naive monitoring hook bolted
    onto the engine would do.  Whether a rogue read lands before or
    after the protocol's writes, no happens-before edge orders them, so
    the detector must flag at least one read-write conflict.
    """
    spec = config.mpich2_nmad()
    detector = RaceDetector()
    runtime = MPIRuntime(2, spec, cluster=config.xeon_pair(), seed=seed)
    detector.install(runtime.sim)
    watch_runtime(detector, runtime)
    sim = runtime.sim

    def rogue_peek() -> None:
        len(runtime.stacks[1].core.posted)

    for i in range(8):
        sim.schedule(2e-6 * (i + 1), rogue_peek)
    runtime.run(pingpong(size, reps=reps, warmup=0))
    return detector.report()
