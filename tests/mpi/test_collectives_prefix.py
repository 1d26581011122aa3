"""The scan (inclusive prefix) collective."""

import pytest

from repro import config
from repro.runtime import run_mpi


def run_coll(program, nprocs, spec=None):
    spec = spec or config.mpich2_nmad()
    return run_mpi(program, nprocs, spec,
                   cluster=config.ClusterSpec(n_nodes=nprocs))


@pytest.mark.parametrize("p", [1, 2, 4, 5, 8])
def test_scan_inclusive_prefix(p):
    def program(comm):
        out = yield from comm.scan(8, value=comm.rank + 1)
        return out

    r = run_coll(program, p)
    expected = [sum(range(1, i + 2)) for i in range(p)]
    assert r.rank_results == expected


def test_scan_custom_op():
    def program(comm):
        out = yield from comm.scan(8, value=comm.rank + 1,
                                   op=lambda a, b: a * b)
        return out

    r = run_coll(program, 4)
    assert r.rank_results == [1, 2, 6, 24]


def test_scan_under_pioman():
    def program(comm):
        out = yield from comm.scan(8, value=1)
        return out

    r = run_coll(program, 4, spec=config.mpich2_nmad_pioman())
    assert r.rank_results == [1, 2, 3, 4]


def test_prefix_collectives_on_native_stack():
    def program(comm):
        out = yield from comm.scan(8, value=comm.rank)
        return out

    r = run_coll(program, 4, spec=config.openmpi_ib())
    assert r.rank_results == [0, 1, 3, 6]
