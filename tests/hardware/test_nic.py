"""Unit tests for NIC/fabric models."""

import pytest

from repro.hardware import Fabric, Frame, NICParams
from repro.simulator import Simulator


def make_params(**kw):
    base = dict(
        name="test",
        post_overhead=0.1e-6,
        recv_overhead=0.1e-6,
        wire_latency=1.0e-6,
        bandwidth=1e9,
        per_message_gap=0.05e-6,
        max_inline=128,
        dma_setup=0.2e-6,
    )
    base.update(kw)
    return NICParams(**base)


def build_pair(params=None):
    sim = Simulator()
    fabric = Fabric(sim, params or make_params())
    nic0, nic1 = fabric.attach(0), fabric.attach(1)
    return sim, fabric, nic0, nic1


def test_injection_time_small_message_is_inline():
    p = make_params()
    # 64 <= max_inline: no dma_setup
    assert p.injection_time(64) == pytest.approx(0.05e-6 + 64 / 1e9)


def test_injection_time_large_message_pays_dma_setup():
    p = make_params()
    assert p.injection_time(4096) == pytest.approx(0.05e-6 + 0.2e-6 + 4096 / 1e9)


def test_transfer_time_adds_wire_latency():
    p = make_params()
    assert p.transfer_time(64) == pytest.approx(p.injection_time(64) + 1.0e-6)


def test_frame_arrives_after_injection_plus_wire():
    sim, fabric, nic0, nic1 = build_pair()
    arrived = []
    nic1.rx_notify = lambda f: arrived.append((sim.now, f))
    nic0.post_send(Frame(src=0, dst=1, size=64))
    sim.run()
    expected = nic0.params.injection_time(64) + nic0.params.wire_latency
    assert arrived[0][0] == pytest.approx(expected)
    assert arrived[0][1].size == 64


def test_local_completion_at_injection_end():
    sim, fabric, nic0, nic1 = build_pair()
    done_at = []
    evt = nic0.post_send(Frame(src=0, dst=1, size=1000))
    evt.add_done_callback(lambda e: done_at.append(sim.now))
    sim.run()
    assert done_at[0] == pytest.approx(nic0.params.injection_time(1000))


def test_back_to_back_sends_serialize():
    sim, fabric, nic0, nic1 = build_pair()
    arrivals = []
    nic1.rx_notify = lambda f: arrivals.append(sim.now)
    nic0.post_send(Frame(src=0, dst=1, size=1000))
    nic0.post_send(Frame(src=0, dst=1, size=1000))
    sim.run()
    inj = nic0.params.injection_time(1000)
    wire = nic0.params.wire_latency
    assert arrivals[0] == pytest.approx(inj + wire)
    assert arrivals[1] == pytest.approx(2 * inj + wire)


def test_frames_delivered_in_order():
    sim, fabric, nic0, nic1 = build_pair()
    order = []
    nic1.rx_notify = lambda f: order.append(f.frame_id)
    frames = [Frame(src=0, dst=1, size=100) for _ in range(5)]
    for f in frames:
        nic0.post_send(f)
    sim.run()
    assert order == [f.frame_id for f in frames]


def test_rx_queue_holds_frames_without_notify():
    sim, fabric, nic0, nic1 = build_pair()
    nic0.post_send(Frame(src=0, dst=1, size=10, kind="eager", payload="hi"))
    sim.run()
    assert len(nic1.rx_queue) == 1
    frame = nic1.rx_queue.get().value
    assert frame.payload == "hi"
    assert frame.kind == "eager"
    assert frame.rail == "test"


def test_wrong_source_node_rejected():
    sim, fabric, nic0, nic1 = build_pair()
    with pytest.raises(ValueError):
        nic0.post_send(Frame(src=1, dst=0, size=10))


def test_unknown_destination_raises_at_delivery():
    sim, fabric, nic0, nic1 = build_pair()
    nic0.post_send(Frame(src=0, dst=7, size=10))
    with pytest.raises(ValueError):
        sim.run()


def test_duplicate_attach_rejected():
    sim, fabric, nic0, nic1 = build_pair()
    with pytest.raises(ValueError):
        fabric.attach(0)


def test_tx_stats_accumulate():
    sim, fabric, nic0, nic1 = build_pair()
    nic0.post_send(Frame(src=0, dst=1, size=100))
    nic0.post_send(Frame(src=0, dst=1, size=200))
    sim.run()
    assert nic0.tx_frames == 2
    assert nic0.tx_bytes == 300
    assert nic1.rx_frames == 2
    assert nic1.rx_bytes == 300


def test_tx_busy_and_idle_at():
    sim, fabric, nic0, nic1 = build_pair()
    assert not nic0.tx_busy
    nic0.post_send(Frame(src=0, dst=1, size=10_000))
    assert nic0.tx_busy
    assert nic0.tx_idle_at() == pytest.approx(nic0.params.injection_time(10_000))
    sim.run()
    assert not nic0.tx_busy


def test_bidirectional_traffic_independent():
    sim, fabric, nic0, nic1 = build_pair()
    t = []
    nic0.rx_notify = lambda f: t.append(("at0", sim.now))
    nic1.rx_notify = lambda f: t.append(("at1", sim.now))
    nic0.post_send(Frame(src=0, dst=1, size=100))
    nic1.post_send(Frame(src=1, dst=0, size=100))
    sim.run()
    # full duplex: both arrive at the same time
    assert t[0][1] == pytest.approx(t[1][1])
