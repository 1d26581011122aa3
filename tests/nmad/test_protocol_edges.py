"""Protocol-invariant and error-path tests for the NewMadeleine core."""

import pytest

from repro import config
from repro.hardware import build_cluster, presets
from repro.nmad import NmadCore, NmadCosts
from repro.nmad.core import ProtocolError
from repro.nmad.drivers import NmadDriver, make_ib_driver
from repro.nmad.packet import (
    CONTROL_SIZE,
    HEADER_SIZE,
    CtsEntry,
    DataEntry,
    EagerEntry,
    PacketWrapper,
    RtsEntry,
    entry_wire_size,
)
from repro.nmad.request import NmadRequest
from repro.runtime import MPIRuntime
from repro.simulator import Simulator


# ---------------------------------------------------------------------------
# packet wrappers
# ---------------------------------------------------------------------------

def test_entry_wire_sizes():
    assert entry_wire_size(EagerEntry(0, 1, "t", 0, 100)) == HEADER_SIZE + 100
    assert entry_wire_size(DataEntry(0, 1, 5, 1000)) == HEADER_SIZE + 1000
    assert entry_wire_size(RtsEntry(0, 1, "t", 0, 1 << 20)) == CONTROL_SIZE
    assert entry_wire_size(CtsEntry(0, 1, 5)) == CONTROL_SIZE


def test_pw_wire_size_sums_entries():
    pw = PacketWrapper(dst_node=1, src_node=0)
    pw.append(EagerEntry(0, 1, "a", 0, 10))
    pw.append(EagerEntry(0, 1, "b", 0, 20))
    pw.append(CtsEntry(0, 1, 1))
    assert pw.wire_size == (HEADER_SIZE + 10) + (HEADER_SIZE + 20) + CONTROL_SIZE
    assert pw.dst_ranks == [1, 1, 1]


def test_pw_ids_unique():
    a = PacketWrapper(dst_node=0, src_node=0)
    b = PacketWrapper(dst_node=0, src_node=0)
    assert a.pw_id != b.pw_id


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def test_request_kind_validated():
    sim = Simulator()
    with pytest.raises(ValueError):
        NmadRequest(sim, "neither", 0, "t", 0)


def test_request_double_finish_rejected():
    sim = Simulator()
    req = NmadRequest(sim, "send", 1, "t", 8)
    req._finish(sim)
    with pytest.raises(RuntimeError, match="twice"):
        req._finish(sim)


def test_request_repr_mentions_state():
    sim = Simulator()
    req = NmadRequest(sim, "recv", 2, "tag", 64)
    assert "pending" in repr(req)
    req._finish(sim)
    assert "done" in repr(req)


# ---------------------------------------------------------------------------
# driver invariants
# ---------------------------------------------------------------------------

def build_driver(window=1):
    sim = Simulator()
    cluster = build_cluster(sim, 2, presets.XEON_NODE, [presets.IB_CONNECTX])
    return sim, NmadDriver(cluster.node(0).nics["ib"], window=window)


def test_driver_window_enforced():
    sim, driver = build_driver(window=1)
    pw = PacketWrapper(dst_node=1, src_node=0)
    pw.append(EagerEntry(0, 1, "t", 0, 10_000))
    driver.post(pw)
    assert not driver.window_free()
    pw2 = PacketWrapper(dst_node=1, src_node=0)
    pw2.append(EagerEntry(0, 1, "t", 1, 8))
    with pytest.raises(RuntimeError, match="window full"):
        driver.post(pw2)


def test_driver_window_frees_after_injection():
    sim, driver = build_driver(window=1)
    pw = PacketWrapper(dst_node=1, src_node=0)
    pw.append(EagerEntry(0, 1, "t", 0, 10))
    driver.post(pw)
    sim.run()
    assert driver.window_free()
    assert driver.pws_posted == 1


def test_driver_rejects_zero_window():
    sim = Simulator()
    cluster = build_cluster(sim, 1, presets.XEON_NODE, [presets.IB_CONNECTX])
    with pytest.raises(ValueError):
        NmadDriver(cluster.node(0).nics["ib"], window=0)


# ---------------------------------------------------------------------------
# core protocol errors
# ---------------------------------------------------------------------------

def drive(sim, gen):
    task = sim.spawn(gen)
    sim.run()
    return task


def test_cts_for_unknown_rendezvous_rejected(world):
    core = world.cores[0]

    def feed():
        yield from core.handle_entry(CtsEntry(1, 0, rdv_id=424242), "ib")

    world.sim.spawn(feed())
    with pytest.raises(ProtocolError, match="unknown rendezvous"):
        world.sim.run()


def test_duplicate_cts_rejected(world):
    """A second grant for a live rendezvous would push its data twice."""
    core = world.cores[0]

    def feed():
        yield from core.isend(1, "dup", 64 * 1024)
        (rdv_id,) = core._rdv_send
        # both grants arrive before the first one's data is injected
        yield from core.handle_entry(CtsEntry(1, 0, rdv_id=rdv_id), "ib")
        yield from core.handle_entry(CtsEntry(1, 0, rdv_id=rdv_id), "ib")

    world.sim.spawn(feed())
    with pytest.raises(ProtocolError, match="duplicate CTS for rendezvous"):
        world.sim.run()


def test_data_for_unknown_rendezvous_rejected(world):
    core = world.cores[0]

    def feed():
        yield from core.handle_entry(DataEntry(1, 0, rdv_id=99, size=10), "ib")

    world.sim.spawn(feed())
    with pytest.raises(ProtocolError, match="unknown rendezvous"):
        world.sim.run()


def test_out_of_order_seq_detected(world):
    core = world.cores[1]

    def feed():
        # seq 1 arrives before seq 0 for the same (src, tag) flow
        req = yield from core.irecv(0, "seq-tag")
        yield from core.handle_entry(
            EagerEntry(0, 1, "seq-tag", seq=1, size=4), "ib")

    world.sim.spawn(feed())
    with pytest.raises(ProtocolError, match="out-of-order"):
        world.sim.run()


def test_unknown_rail_lookup_rejected(world):
    with pytest.raises(KeyError):
        world.cores[0].driver_for_rail("quadrics")


def test_rdv_overrun_detected():
    """More data bytes than announced must raise, not corrupt state."""
    # isolated core: no peer consumes the CTS our crafted RTS triggers
    sim = Simulator()
    cluster = build_cluster(sim, 2, presets.XEON_NODE, [presets.IB_CONNECTX])
    node = cluster.node(1)
    core = NmadCore(sim, 1, 1, node.mem, node.make_registrar(False))
    core.add_driver(make_ib_driver(node.nics["ib"]))
    from repro.nmad.strategies import make_strategy
    core.set_strategy(make_strategy("default", core))

    def feed():
        yield from core.irecv(0, "big")
        # hand-craft the rendezvous: RTS announcing 100 bytes
        yield from core.handle_entry(
            RtsEntry(0, 1, "big", seq=0, size=100, rdv_id=7), "ib")

    drive(sim, feed())

    def overrun():
        yield from core.handle_entry(DataEntry(0, 1, rdv_id=7, size=150), "ib")

    sim.spawn(overrun())
    with pytest.raises(ProtocolError, match="overran"):
        sim.run()


# ---------------------------------------------------------------------------
# per-message state is freed
# ---------------------------------------------------------------------------

def _rdv_pingpongs(n):
    """Container sizes of every core after ``n`` 64 KiB ping-pongs."""

    def program(comm):
        peer = 1 - comm.rank
        for _ in range(n):
            if comm.rank == 0:
                yield from comm.send(peer, tag=1, size=64 * 1024)
                yield from comm.recv(src=peer, tag=1)
            else:
                yield from comm.recv(src=peer, tag=1)
                yield from comm.send(peer, tag=1, size=64 * 1024)

    runtime = MPIRuntime(2, config.mpich2_nmad(), cluster=config.xeon_pair())
    runtime.run(program)
    cores = [stack.core for stack in runtime.stacks]
    for core in cores:
        assert core._rdv_send == {} and core._rdv_recv == {}
    return [{name: len(value) for name, value in vars(core).items()
             if isinstance(value, (set, dict, list))} for core in cores]


def test_rendezvous_state_is_freed():
    """No core container grows with the number of rendezvous."""
    assert _rdv_pingpongs(4) == _rdv_pingpongs(16)
