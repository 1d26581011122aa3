"""CH3 stack behaviour: direct and netmod paths, shm, protocols."""

import pytest

from repro import config
from repro.mpi import ANY_TAG
from repro.simulator import Trace
from repro.workloads.netpipe import run_netpipe

from tests.mpich2.conftest import run2, run_intra


def exchange(size, data="payload"):
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag=5, size=size, data=data)
            return None
        msg = yield from comm.recv(src=0, tag=5)
        return (msg.source, msg.tag, msg.size, msg.data)
    return program


def test_small_message_direct(ch3_spec):
    r = run2(exchange(100), spec=ch3_spec)
    assert r.result(1) == (0, 5, 100, "payload")


def test_large_message_both_modes(ch3_spec):
    r = run2(exchange(1 << 20, data="big"), spec=ch3_spec)
    assert r.result(1) == (0, 5, 1 << 20, "big")


def test_intra_node_message(ch3_spec):
    r = run_intra(exchange(256), spec=ch3_spec)
    assert r.result(1) == (0, 5, 256, "payload")


def test_intra_node_large_message(ch3_spec):
    r = run_intra(exchange(1 << 20, data=b"z"), spec=ch3_spec)
    assert r.result(1)[3] == b"z"


def test_netmod_nested_handshake_frame_count():
    """Fig. 2: the netmod path runs CH3 RTS/CTS *around* nmad's own
    rendezvous — 5 network frames where the direct path needs 3."""
    def count_frames(spec):
        trace = Trace(categories={"nic.tx"})
        run2(exchange(1 << 20), spec=spec, trace=trace)
        return trace.count("nic.tx")

    assert count_frames(config.mpich2_nmad()) == 3          # RTS, CTS, DATA
    assert count_frames(config.mpich2_nmad_netmod()) == 5   # + CH3 RTS, CTS


def test_netmod_slower_than_direct_large():
    def timed(spec):
        def program(comm):
            t0 = comm.sim.now
            if comm.rank == 0:
                yield from comm.send(1, tag=1, size=1 << 20)
            else:
                yield from comm.recv(src=0, tag=1)
            return comm.sim.now - t0
        return run2(program, spec=spec).result(1)

    assert timed(config.mpich2_nmad_netmod()) > timed(config.mpich2_nmad())


def test_netmod_extra_copies_slow_medium_messages():
    def timed(spec):
        return run2(exchange(16 << 10), spec=spec).elapsed

    assert timed(config.mpich2_nmad_netmod()) > timed(config.mpich2_nmad())


def test_bypass_wins_at_every_size():
    """Section 3.1: no cell copies for eager, no nested handshake for
    rendezvous — the direct path wins from 4 B to 16 MiB."""
    sizes = [4, 4 << 10, 64 << 10, 1 << 20, 16 << 20]
    direct, netmod = (
        run_netpipe(spec, config.xeon_pair(), sizes, reps=4).latencies
        for spec in (config.mpich2_nmad(), config.mpich2_nmad_netmod()))
    assert all(d < n for d, n in zip(direct, netmod))
    # the nested handshake costs an extra round trip at 1 MiB
    i = sizes.index(1 << 20)
    assert netmod[i] - direct[i] > 3e-6
    # the cell copies hurt medium eager messages proportionally more
    i = sizes.index(4 << 10)
    assert netmod[i] / direct[i] > 1.3


def test_bidirectional_exchange(ch3_spec):
    def program(comm):
        peer = 1 - comm.rank
        msg = yield from comm.sendrecv(peer, peer, tag=3, size=512,
                                       data=f"from{comm.rank}")
        return msg.data

    r = run2(program, spec=ch3_spec)
    assert r.result(0) == "from1"
    assert r.result(1) == "from0"


def test_many_messages_in_order(ch3_spec):
    n = 30

    def program(comm):
        if comm.rank == 0:
            for i in range(n):
                yield from comm.send(1, tag="seq", size=64 + i, data=i)
            return None
        out = []
        for _ in range(n):
            msg = yield from comm.recv(src=0, tag="seq")
            out.append(msg.data)
        return out

    r = run2(program, spec=ch3_spec)
    assert r.result(1) == list(range(n))


def test_mixed_sizes_same_tag_in_order(ch3_spec):
    sizes = [8, 1 << 20, 64, 256 << 10, 1024]

    def program(comm):
        if comm.rank == 0:
            for i, s in enumerate(sizes):
                yield from comm.send(1, tag="mix", size=s, data=i)
            return None
        out = []
        for _ in sizes:
            msg = yield from comm.recv(src=0, tag="mix")
            out.append(msg.data)
        return out

    r = run2(program, spec=ch3_spec)
    assert r.result(1) == list(range(len(sizes)))


def test_unexpected_messages_match_later(ch3_spec):
    def program(comm):
        if comm.rank == 0:
            for i in range(3):
                yield from comm.send(1, tag=("u", i), size=32, data=i)
            return None
        # receive in reverse posting order, long after arrival
        yield from comm.compute(1e-3)
        out = []
        for i in reversed(range(3)):
            msg = yield from comm.recv(src=0, tag=("u", i))
            out.append(msg.data)
        return out

    r = run2(program, spec=ch3_spec)
    assert r.result(1) == [2, 1, 0]


def test_nonblocking_overlap_requests(ch3_spec):
    def program(comm):
        if comm.rank == 0:
            reqs = []
            for i in range(4):
                req = yield from comm.isend(1, tag=i, size=2048, data=i)
                reqs.append(req)
            yield from comm.waitall(reqs)
            return None
        reqs = []
        for i in range(4):
            req = yield from comm.irecv(src=0, tag=i)
            reqs.append(req)
        msgs = yield from comm.waitall(reqs)
        return [m.data for m in msgs]

    r = run2(program, spec=ch3_spec)
    assert r.result(1) == [0, 1, 2, 3]


def test_any_tag_rejected_on_direct_network_path():
    def program(comm):
        if comm.rank == 1:
            yield from comm.recv(src=0, tag=ANY_TAG)
        else:
            yield from comm.send(1, tag=1, size=8)

    with pytest.raises(NotImplementedError, match="ANY_TAG"):
        run2(program, spec=config.mpich2_nmad())


def test_any_tag_works_on_netmod_path():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag="whatever", size=8, data="x")
            return None
        msg = yield from comm.recv(src=0, tag=ANY_TAG)
        return (msg.tag, msg.data)

    r = run2(program, spec=config.mpich2_nmad_netmod())
    assert r.result(1) == ("whatever", "x")


def test_any_tag_works_intra_node_direct():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag="local", size=8, data="y")
            return None
        msg = yield from comm.recv(src=0, tag=ANY_TAG)
        return msg.tag

    r = run_intra(program, spec=config.mpich2_nmad())
    assert r.result(1) == "local"


def test_vc_local_vs_remote_dispatch():
    from repro.runtime import MPIRuntime

    rt = MPIRuntime(4, config.mpich2_nmad(),
                    cluster=config.ClusterSpec(n_nodes=2), ranks_per_node=2)
    stack = rt.stacks[0]
    assert stack.vcs[1].is_local        # rank 1 shares node 0
    assert not stack.vcs[2].is_local    # ranks 2,3 on node 1
    assert stack.vcs[1].send_fn == stack._send_shm
    assert stack.vcs[2].send_fn == stack._send_direct


def test_stats_counters(ch3_spec):
    from repro.runtime import MPIRuntime

    rt = MPIRuntime(2, ch3_spec, cluster=config.xeon_pair())

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag=0, size=1000)
        else:
            yield from comm.recv(src=0, tag=0)

    rt.run(program)
    assert rt.stacks[0].messages_sent == 1
    assert rt.stacks[0].bytes_sent == 1000


def test_pioman_mode_correctness():
    r = run2(exchange(100), spec=config.mpich2_nmad_pioman())
    assert r.result(1) == (0, 5, 100, "payload")
    r = run2(exchange(1 << 20, data="L"), spec=config.mpich2_nmad_pioman())
    assert r.result(1)[3] == "L"


def test_pioman_intra_node_correctness():
    r = run_intra(exchange(100), spec=config.mpich2_nmad_pioman())
    assert r.result(1) == (0, 5, 100, "payload")
