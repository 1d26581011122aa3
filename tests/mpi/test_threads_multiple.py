"""Multithreaded ranks: the MPI_THREAD_MULTIPLE extension.

The paper (Section 3.3.2): with PIOMan's semaphore waits, "instead of
concurrently polling when several threads invoke MPI_Wait — which would
boil down to wasting CPU time — these threads would relinquish the CPU
in order to allow other threads to compute."
"""

import pytest

from repro import config
from repro.hardware.params import NodeParams
from repro.hardware.presets import XEON_MEM
from repro.runtime import run_mpi


def small_node_cluster(cores):
    node = NodeParams(cores=cores, flops_per_core=3.0e9, mem=XEON_MEM)
    return config.ClusterSpec(n_nodes=2, node=node,
                              rails=config.xeon_pair().rails)


def test_spawned_thread_runs_and_returns():
    def program(comm):
        def worker():
            yield from comm.compute(10e-6)
            return comm.rank * 100

        t = comm.spawn_thread(worker())
        result = yield from comm.join(t)
        return result

    r = run_mpi(program, 2, config.mpich2_nmad(), cluster=config.xeon_pair())
    assert r.rank_results == [0, 100]


def test_threads_communicate_concurrently():
    """Two threads of rank 0 each converse with rank 1 on its own tag."""
    def program(comm):
        if comm.rank == 0:
            def talker(tag):
                yield from comm.send(1, tag=tag, size=64, data=tag)
                msg = yield from comm.recv(src=1, tag=("re", tag))
                return msg.data

            t1 = comm.spawn_thread(talker("a"))
            t2 = comm.spawn_thread(talker("b"))
            r1 = yield from comm.join(t1)
            r2 = yield from comm.join(t2)
            return (r1, r2)
        # rank 1: serve both tags in turn
        served = []
        for tag in ("a", "b"):
            msg = yield from comm.recv(src=0, tag=tag)
            served.append(msg.data)
            yield from comm.send(0, tag=("re", tag), size=64,
                                 data=f"echo-{tag}")
        return served

    r = run_mpi(program, 2, config.mpich2_nmad(), cluster=config.xeon_pair())
    assert sorted(r.result(0)) == ["echo-a", "echo-b"]
    assert r.result(1) == ["a", "b"]


def test_thread_exception_propagates_through_join():
    def program(comm):
        def bad():
            yield from comm.compute(1e-6)
            raise ValueError("thread bug")

        t = comm.spawn_thread(bad())
        try:
            yield from comm.join(t)
        except ValueError as err:
            return str(err)

    r = run_mpi(program, 2, config.mpich2_nmad(), cluster=config.xeon_pair())
    assert r.result(0) == "thread bug"


def waiting_vs_compute_program(comm):
    """Rank 0: one thread waits for a late message while another computes.

    On a 2-core node the main thread holds one core while joining.
    The waiter's behaviour decides whether the compute thread can run.
    """
    if comm.rank == 0:
        def waiter():
            msg = yield from comm.recv(src=1, tag="late")
            return msg.data

        def computer():
            yield from comm.compute(50e-6)
            return comm.sim.now

        tw = comm.spawn_thread(waiter())
        tc = comm.spawn_thread(computer())
        got = yield from comm.join(tw)
        done_at = yield from comm.join(tc)
        return (got, done_at)
    yield from comm.compute(300e-6)
    yield from comm.send(0, tag="late", size=64, data="finally")


def test_pioman_waiting_thread_releases_core():
    """With PIOMan the waiter blocks on a semaphore, freeing its core:
    the compute thread finishes long before the message arrives."""
    r = run_mpi(waiting_vs_compute_program, 2,
                config.mpich2_nmad_pioman(progress="pioman"),
                cluster=small_node_cluster(cores=2))
    got, compute_done = r.result(0)
    assert got == "finally"
    assert compute_done < 150e-6  # well before the 300 us message


def test_busy_wait_thread_starves_compute():
    """Without PIOMan the waiter busy-polls, holding its core; with the
    main thread joining on the other core, compute starves until the
    message arrives (the paper's 'wasting CPU time')."""
    r = run_mpi(waiting_vs_compute_program, 2, config.mpich2_nmad(),
                cluster=small_node_cluster(cores=2))
    got, compute_done = r.result(0)
    assert got == "finally"
    assert compute_done > 300e-6
