"""Edge cases for the classic collectives: odd p.

The base suite in ``test_collectives.py`` sweeps the common process
counts; this file pins the awkward corners — every odd (non-power-of
two) count for the log-structured algorithms and the p=1 degenerate
forms.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.runtime import run_mpi

ODD_PROCS = [1, 3, 5, 7]


def run_coll(program, nprocs):
    return run_mpi(program, nprocs, config.mpich2_nmad(),
                   cluster=config.ClusterSpec(n_nodes=nprocs))


@pytest.mark.parametrize("p", ODD_PROCS)
def test_barrier_odd_counts(p):
    def program(comm):
        yield from comm.compute((p - comm.rank) * 5e-6)
        yield from comm.barrier()
        return comm.sim.now

    r = run_coll(program, p)
    latest = p * 5e-6
    assert all(t >= latest for t in r.rank_results)


@pytest.mark.parametrize("p", ODD_PROCS)
def test_allreduce_odd_counts(p):
    def program(comm):
        out = yield from comm.allreduce(64, value=comm.rank + 1,
                                        op=lambda a, b: a * b)
        return out

    r = run_coll(program, p)
    expect = 1
    for k in range(1, p + 1):
        expect *= k
    assert r.rank_results == [expect] * p


@pytest.mark.parametrize("p", ODD_PROCS)
def test_scan_inclusive_prefix(p):
    def program(comm):
        out = yield from comm.scan(64, value=[comm.rank],
                                   op=lambda a, b: a + b)
        return out

    r = run_coll(program, p)
    for rank, got in enumerate(r.rank_results):
        assert got == list(range(rank + 1))
