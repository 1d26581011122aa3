"""Communicator API: requests, self-messaging, compute, datatypes."""

import pytest

from repro import config
from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import CONTIGUOUS, vector
from repro.runtime import run_mpi


def run1(program):
    return run_mpi(program, 1, config.mpich2_nmad(),
                   cluster=config.ClusterSpec(n_nodes=1))


def run2(program, spec=None):
    return run_mpi(program, 2, spec or config.mpich2_nmad(),
                   cluster=config.xeon_pair())


def test_rank_and_size():
    def program(comm):
        yield from comm.compute(0)
        return (comm.rank, comm.size)

    r = run_mpi(program, 3, config.mpich2_nmad(),
                cluster=config.ClusterSpec(n_nodes=3))
    assert r.rank_results == [(0, 3), (1, 3), (2, 3)]


def test_send_to_invalid_rank_rejected():
    def program(comm):
        yield from comm.send(5, tag=0, size=1)

    with pytest.raises(ValueError, match="out of range"):
        run2(program)


def test_self_send_recv():
    def program(comm):
        yield from comm.send(0, tag="self", size=10, data="me")
        msg = yield from comm.recv(src=0, tag="self")
        return (msg.source, msg.data)

    r = run1(program)
    assert r.result(0) == (0, "me")


def test_self_irecv_before_send():
    def program(comm):
        req = yield from comm.irecv(src=0, tag="later")
        yield from comm.send(0, tag="later", size=4, data=99)
        msg = yield from comm.wait(req)
        return msg.data

    r = run1(program)
    assert r.result(0) == 99


def test_self_messages_match_by_tag():
    def program(comm):
        yield from comm.send(0, tag="a", size=1, data="A")
        yield from comm.send(0, tag="b", size=1, data="B")
        mb = yield from comm.recv(src=0, tag="b")
        ma = yield from comm.recv(src=0, tag="a")
        return (ma.data, mb.data)

    r = run1(program)
    assert r.result(0) == ("A", "B")


def _on(nprocs, program):
    return run_mpi(program, nprocs, config.mpich2_nmad(),
                   cluster=config.ClusterSpec(n_nodes=nprocs))


@pytest.mark.parametrize("nprocs", [1, 2])
def test_wildcard_receives_take_the_oldest_matching_self_message(nprocs):
    def program(comm):
        me = comm.rank
        for tag, data in (("t", "first t"), ("u", "only u"), ("t", "second t")):
            yield from comm.isend(me, tag=tag, size=4, data=data)
        by_tag = yield from comm.recv(src=ANY_SOURCE, tag="t")
        any_tag = yield from comm.recv(src=me, tag=ANY_TAG)
        both = yield from comm.recv(src=ANY_SOURCE, tag=ANY_TAG)
        return [(m.source, m.tag, m.data) for m in (by_tag, any_tag, both)]

    r = _on(nprocs, program)
    for rank in range(nprocs):
        assert r.result(rank) == [(rank, "t", "first t"), (rank, "u", "only u"),
                                  (rank, "t", "second t")]


@pytest.mark.parametrize("nprocs", [1, 2])
def test_self_receives_posted_first_match_in_post_order(nprocs):
    def program(comm):
        me = comm.rank
        first = yield from comm.irecv(src=me, tag=ANY_TAG)
        second = yield from comm.irecv(src=me, tag="x")
        yield from comm.send(me, tag="x", size=1, data=1)
        yield from comm.send(me, tag="x", size=1, data=2)
        m1 = yield from comm.wait(first)
        m2 = yield from comm.wait(second)
        return (m1.tag, m1.data, m2.tag, m2.data)

    r = _on(nprocs, program)
    assert r.rank_results == [("x", 1, "x", 2)] * nprocs


def test_self_message_source_is_communicator_local():
    def program(comm):
        yield from comm.send(comm.rank, tag="me", size=1)
        msg = yield from comm.recv(src=ANY_SOURCE, tag="me")
        return (comm.rank, msg.source)

    r = _on(2, program)
    assert r.rank_results == [(0, 0), (1, 1)]


def test_compute_advances_clock():
    def program(comm):
        t0 = comm.sim.now
        yield from comm.compute(5e-3)
        return comm.sim.now - t0

    r = run1(program)
    assert r.result(0) == pytest.approx(5e-3)


def test_compute_flops_uses_node_rate():
    def program(comm):
        t0 = comm.sim.now
        yield from comm.compute_flops(3.0e9)  # Xeon preset: 3 GF/s
        return comm.sim.now - t0

    r = run1(program)
    assert r.result(0) == pytest.approx(1.0)


def test_compute_efficiency_applies_to_native_stacks():
    def program(comm):
        t0 = comm.sim.now
        yield from comm.compute(1.0)
        return comm.sim.now - t0

    r = run2(program, spec=config.openmpi_ib())
    assert r.result(0) == pytest.approx(1.0 / 0.92)


def test_message_fields():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag=17, size=321, data=b"q")
            return None
        msg = yield from comm.recv(src=0, tag=17)
        return (msg.source, msg.tag, msg.size, msg.data)

    r = run2(program)
    assert r.result(1) == (0, 17, 321, b"q")


def test_waitall_returns_messages_in_request_order():
    def program(comm):
        if comm.rank == 0:
            for i in range(3):
                yield from comm.send(1, tag=i, size=16, data=i * 100)
            return None
        reqs = []
        for i in (2, 0, 1):
            req = yield from comm.irecv(src=0, tag=i)
            reqs.append(req)
        msgs = yield from comm.waitall(reqs)
        return [m.data for m in msgs]

    r = run2(program)
    assert r.result(1) == [200, 0, 100]


def test_vector_datatype_charges_pack_cost():
    strided = vector(count=64, blocklen=64, stride=256)
    assert not strided.contiguous

    def make(dt):
        def program(comm):
            t0 = comm.sim.now
            if comm.rank == 0:
                yield from comm.send(1, tag=0, size=256 << 10, datatype=dt)
            else:
                yield from comm.recv(src=0, tag=0, datatype=dt)
            return comm.sim.now - t0
        return program

    t_contig = run2(make(CONTIGUOUS)).result(1)
    t_vector = run2(make(strided)).result(1)
    assert t_vector > t_contig


def test_dense_vector_is_contiguous():
    dt = vector(count=10, blocklen=8, stride=8)
    assert dt.contiguous
    assert dt.pack_cost(None, 1000) == 0.0


def test_vector_validation():
    with pytest.raises(ValueError):
        vector(count=0, blocklen=1, stride=1)
    with pytest.raises(ValueError):
        vector(count=1, blocklen=4, stride=2)


def test_sparser_vectors_cost_more():
    from repro.hardware.params import MemParams

    mem = MemParams()
    dense = vector(count=8, blocklen=64, stride=128)
    sparse = vector(count=8, blocklen=8, stride=128)
    assert sparse.pack_cost(mem, 4096) > dense.pack_cost(mem, 4096)


def test_program_must_be_generator():
    def not_a_program(comm):
        return 42

    with pytest.raises(TypeError, match="generator"):
        run1(not_a_program)
