"""Rendezvous-protocol behaviour: handshake, zero copy, registration."""

import pytest

from repro import config
from repro.nmad import NmadCosts
from repro.simulator import Trace
from repro.workloads.netpipe import run_netpipe

from tests.nmad.conftest import NmadWorld
from tests.nmad.test_core_eager import run_transfer


def test_large_message_uses_rendezvous(world):
    size = 1 << 20
    sreq, rreq, _ = run_transfer(world, size, data="bigpayload")
    assert sreq.complete and rreq.complete
    assert rreq.data == "bigpayload"


def test_rendezvous_wire_traffic_has_rts_cts_data():
    trace = Trace(categories={"nic.tx"})
    world = NmadWorld()
    world.sim.trace = trace
    run_transfer(world, 1 << 20)
    kinds = [r.data["kind"] for r in trace.filter("nic.tx")]
    # all nmad frames; count them: rts pw, cts pw, data pw
    assert len(kinds) == 3


def test_threshold_boundary_eager_vs_rdv():
    costs = NmadCosts(eager_threshold=1024)
    trace = Trace(categories={"nic.tx"})
    w1 = NmadWorld(costs=costs)
    w1.sim.trace = trace
    run_transfer(w1, 1024)       # == threshold -> eager, single frame
    assert trace.count("nic.tx") == 1

    trace2 = Trace(categories={"nic.tx"})
    w2 = NmadWorld(costs=costs)
    w2.sim.trace = trace2
    run_transfer(w2, 1025)       # > threshold -> rendezvous, 3 frames
    assert trace2.count("nic.tx") == 3


def test_rendezvous_bandwidth_approaches_line_rate(world):
    size = 16 << 20
    _, _, elapsed = run_transfer(world, size)
    bw = size / elapsed
    line = 1.50e9
    assert bw > 0.85 * line
    assert bw < line


def test_registration_charged_on_both_sides(world):
    run_transfer(world, 1 << 20)
    # sender registers tx buffer, receiver registers rx buffer
    assert world.cores[0].registrar.full_registrations == 1
    assert world.cores[1].registrar.full_registrations == 1


def test_no_registration_for_eager(world):
    run_transfer(world, 1024)
    assert world.cores[0].registrar.full_registrations == 0
    assert world.cores[1].registrar.full_registrations == 0


def test_late_receiver_delays_rendezvous(world):
    """RTS waits unexpected until the receiver posts; data flows after."""
    sim = world.sim
    tx, rx = world.ifaces
    size = 1 << 20

    def sender():
        req = yield from tx.nm_sr_isend(1, "big", None, size)
        yield from tx.nm_sr_rwait(req)
        return sim.now

    def receiver():
        yield sim.timeout(500e-6)
        req = yield from rx.nm_sr_irecv(0, "big", size)
        yield from rx.nm_sr_rwait(req)
        return sim.now

    s = sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    # data could only start after the recv was posted at 500us
    assert s.value > 500e-6
    assert r.value > 500e-6


def test_multiple_rendezvous_same_tag_in_order(world):
    sim = world.sim
    tx, rx = world.ifaces
    size = 256 << 10

    def sender():
        reqs = []
        for i in range(3):
            req = yield from tx.nm_sr_isend(1, "r", f"payload{i}", size)
            reqs.append(req)
        for req in reqs:
            yield from tx.nm_sr_rwait(req)

    def receiver():
        out = []
        for _ in range(3):
            req = yield from rx.nm_sr_irecv(0, "r", size)
            yield from rx.nm_sr_rwait(req)
            out.append(req.data)
        return out

    sim.spawn(sender())
    r = sim.spawn(receiver())
    sim.run()
    assert r.value == ["payload0", "payload1", "payload2"]


def test_eager_faster_than_rendezvous_below_crossover(world):
    # 4 KiB forced through both protocols: at small sizes the rendezvous
    # handshake + registration outweighs the two eager copies.
    costs_eager = NmadCosts(eager_threshold=8 * 1024)
    costs_rdv = NmadCosts(eager_threshold=1024)
    w_eager = NmadWorld(costs=costs_eager)
    w_rdv = NmadWorld(costs=costs_rdv)
    _, _, t_eager = run_transfer(w_eager, 4 * 1024)
    _, _, t_rdv = run_transfer(w_rdv, 4 * 1024)
    assert t_rdv > t_eager


def test_rendezvous_faster_than_eager_above_crossover(world):
    # 256 KiB: zero copy wins over double buffering.
    costs_eager = NmadCosts(eager_threshold=1024 * 1024, max_pw_size=1024 * 1024)
    costs_rdv = NmadCosts(eager_threshold=1024)
    w_eager = NmadWorld(costs=costs_eager)
    w_rdv = NmadWorld(costs=costs_rdv)
    _, _, t_eager = run_transfer(w_eager, 256 * 1024)
    _, _, t_rdv = run_transfer(w_rdv, 256 * 1024)
    assert t_rdv < t_eager


def test_default_threshold_is_optimal_or_tied():
    """Full-stack sweep: forced rendezvous (1 KiB), the 16 KiB default
    and forced eager (256 KiB), probed at 4, 16 and 64 KiB."""
    def latency(threshold, size):
        costs = NmadCosts(eager_threshold=threshold,
                          max_pw_size=max(32 << 10, threshold))
        spec = config.mpich2_nmad().with_(nmad_costs=costs)
        return run_netpipe(spec, config.xeon_pair(), [size],
                           reps=4).latencies[0]

    thresholds = [1 << 10, 16 << 10, 256 << 10]
    sizes = [4 << 10, 16 << 10, 64 << 10]
    lat = {(t, s): latency(t, s) for t in thresholds for s in sizes}
    assert lat[(16 << 10, 4 << 10)] < lat[(1 << 10, 4 << 10)]
    assert lat[(16 << 10, 64 << 10)] < lat[(256 << 10, 64 << 10)]
    for s in sizes:
        assert lat[(16 << 10, s)] <= 1.02 * min(lat[(t, s)]
                                                for t in thresholds)
