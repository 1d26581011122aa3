"""waitany and wtime."""

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
