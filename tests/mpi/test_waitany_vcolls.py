"""waitany, wtime, and the v-variant collectives."""

import pytest

from repro import config
from repro.runtime import run_mpi


def run_p(program, nprocs, spec=None):
    return run_mpi(program, nprocs, spec or config.mpich2_nmad(),
                   cluster=config.ClusterSpec(n_nodes=nprocs))


def test_waitany_returns_first_completion():
    def program(comm):
        if comm.rank == 0:
            # "slow" posted first, "fast" second; fast must win
            slow = yield from comm.irecv(src=1, tag="slow")
            fast = yield from comm.irecv(src=1, tag="fast")
            index, msg = yield from comm.waitany([slow, fast])
            rest = yield from comm.wait(slow)
            return (index, msg.data, rest.data)
        yield from comm.compute(10e-6)
        yield from comm.send(0, tag="fast", size=32, data="first!")
        yield from comm.compute(200e-6)
        yield from comm.send(0, tag="slow", size=32, data="later")
        return None

    r = run_p(program, 2)
    assert r.result(0) == (1, "first!", "later")


def test_waitany_under_pioman():
    def program(comm):
        if comm.rank == 0:
            reqs = []
            for tag in ("a", "b"):
                req = yield from comm.irecv(src=1, tag=tag)
                reqs.append(req)
            idx, msg = yield from comm.waitany(reqs)
            yield from comm.waitall([reqs[1 - idx]])
            return msg.data
        yield from comm.send(0, tag="b", size=16, data="b-data")
        yield from comm.compute(100e-6)
        yield from comm.send(0, tag="a", size=16, data="a-data")
        return None

    r = run_p(program, 2, spec=config.mpich2_nmad_pioman())
    assert r.result(0) == "b-data"


def test_waitany_accepts_persistent_handles():
    def program(comm):
        if comm.rank == 0:
            handle = comm.recv_init(src=1, tag="p")
            got = []
            for _ in range(2):
                plain = yield from comm.irecv(src=1, tag="never-first")
                yield from comm.start(handle)
                index, msg = yield from comm.waitany([plain, handle])
                got.append((index, msg.data, handle.active))
                yield from comm.wait(plain)
            return got
        send = comm.send_init(0, tag="p", size=8, data="persistent")
        for _ in range(2):
            yield from comm.start(send)
            index, _msg = yield from comm.waitany([send])
            assert index == 0 and send.active is None   # reusable
            yield from comm.compute(50e-6)
            yield from comm.send(0, tag="never-first", size=8)
        return send.starts

    r = run_p(program, 2)
    assert r.result(0) == [(1, "persistent", None)] * 2
    assert r.result(1) == 2


def test_waitany_empty_rejected():
    def program(comm):
        yield from comm.waitany([])

    with pytest.raises(ValueError, match="at least one"):
        run_p(program, 2)


def test_wtime_tracks_simulated_clock():
    def program(comm):
        t0 = comm.wtime()
        yield from comm.compute(5e-3)
        return comm.wtime() - t0

    r = run_p(program, 1)
    assert r.result(0) == pytest.approx(5e-3)


def test_gatherv_collects_sizes_and_values():
    def program(comm):
        size = 100 * (comm.rank + 1)
        out = yield from comm.gatherv(size, value=f"r{comm.rank}", root=0)
        return out

    r = run_p(program, 3)
    assert r.result(0) == [(100, "r0"), (200, "r1"), (300, "r2")]
    assert r.result(1) is None


def test_scatterv_distributes_unequal_blocks():
    def program(comm):
        sizes = [64 * (d + 1) for d in range(comm.size)] if comm.rank == 0 else None
        values = [f"v{d}" for d in range(comm.size)] if comm.rank == 0 else None
        out = yield from comm.scatterv(sizes=sizes, values=values, root=0)
        return out

    r = run_p(program, 3)
    assert r.rank_results == ["v0", "v1", "v2"]


def test_alltoallv_transposes_unequal():
    def program(comm):
        p = comm.size
        sizes = [64 * (d + 1) for d in range(p)]
        values = [f"{comm.rank}->{d}" for d in range(p)]
        out = yield from comm.alltoallv(sizes=sizes, values=values)
        return out

    r = run_p(program, 4)
    for rank, got in enumerate(r.rank_results):
        assert got == [f"{s}->{rank}" for s in range(4)]


def test_vcolls_larger_blocks_cost_more():
    def make(block):
        def program(comm):
            t0 = comm.sim.now
            sizes = [block] * comm.size if comm.rank == 0 else None
            yield from comm.scatterv(sizes=sizes, root=0)
            return comm.sim.now - t0
        return program

    small = run_p(make(64), 4).elapsed
    big = run_p(make(1 << 20), 4).elapsed
    assert big > small * 5
