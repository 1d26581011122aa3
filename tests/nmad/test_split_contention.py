"""The contention-aware multirail split (strategy ``split_contention``)."""

from __future__ import annotations

import pytest

from repro import config
from repro.hardware import presets as hw
from repro.hardware.netgraph import BackgroundTraffic, ring
from repro.nmad.strategies import (NetworkSampler, SplitContentionStrategy,
                                   make_strategy)
from repro.runtime.builder import MPIRuntime
from repro.simulator import Trace

SIZE = 1 << 20


def _stream(n_msgs):
    def program(comm):
        for i in range(n_msgs):
            if comm.rank == 0:
                yield from comm.send(1, tag=i, size=SIZE)
                yield from comm.recv(src=1, tag=1000 + i)
            else:
                yield from comm.recv(src=0, tag=i)
                yield from comm.send(0, tag=1000 + i, size=16)
    return program


def _mx_shares(strategy, *, topology=None, bg=False, n_msgs=6):
    """Run the stream; return each split's mx fraction, in order."""
    trace = Trace()
    if topology is None:
        cluster = config.xeon_pair()
    else:
        cluster = config.ClusterSpec(
            n_nodes=4, rails=(hw.IB_CONNECTX, hw.MX_MYRI10G),
            topology=topology, topo_rails=("mx",))
    runtime = MPIRuntime(2, config.mpich2_nmad(rails=("ib", "mx"),
                                               strategy=strategy),
                         cluster=cluster, trace=trace)
    if bg:
        BackgroundTraffic(runtime.cluster.fabrics["mx"], src=3, dst=1,
                          size=1 << 20, period=2e-5, count=400).install()
    runtime.run(_stream(n_msgs))
    splits = [rec.data["shares"] for rec in trace.records
              if rec.category == "strategy.split"]
    assert splits, "large sends must stripe"
    return [dict(s).get("mx", 0) / sum(c for _, c in s) for s in splits]


def test_registered():
    strategy = make_strategy("split_contention", None)
    assert isinstance(strategy, SplitContentionStrategy)
    assert strategy.name == "split_contention"


def test_matches_split_balance_on_flat_rails():
    """With zero observed delay the contended split is the static one."""
    assert _mx_shares("split_contention") == _mx_shares("split_balance")


def test_share_decays_under_induced_contention():
    quiet = _mx_shares("split_contention", topology=ring(4))
    congested = _mx_shares("split_contention", topology=ring(4), bg=True)
    assert quiet[-1] == pytest.approx(quiet[0])
    assert congested[0] == pytest.approx(quiet[0])   # learns from traffic
    assert congested[-1] < congested[0]
    assert congested[-1] < quiet[-1]


def test_static_split_ignores_contention():
    """The baseline strategy keeps overfeeding the congested rail."""
    shares = _mx_shares("split_balance", topology=ring(4), bg=True)
    assert shares[-1] == pytest.approx(shares[0])


def test_adaptive_split_beats_fifty_fifty():
    """On asymmetric rails (IB 1.5 vs MX 1.2 GB/s) an even split ends
    when the slower rail does; the sampled ratio balances them."""
    class EvenSampler(NetworkSampler):
        def sampled_bandwidth(self, driver):
            return 1.0

    def one_way(sampler=None):
        runtime = MPIRuntime(2, config.mpich2_nmad(rails=("ib", "mx")),
                             cluster=config.xeon_pair())
        if sampler is not None:
            for stack in runtime.stacks:
                stack.core.sampler = sampler

        def program(comm):
            start = comm.sim.now
            if comm.rank == 0:
                yield from comm.send(1, tag=0, size=32 << 20)
            else:
                yield from comm.recv(src=0, tag=0)
            return comm.sim.now - start
        return runtime.run(program).result(1)

    # about the serialization imbalance: 50 % on the slow rail, not 44 %
    assert one_way(EvenSampler()) / one_way() > 1.02


def test_sampler_split_contended_shifts_with_delay():
    class FakeNIC:
        def __init__(self, params):
            self.params = params

    class FakeDriver:
        def __init__(self, params):
            self.nic = FakeNIC(params)

    sampler = NetworkSampler()
    drivers = [FakeDriver(hw.IB_CONNECTX), FakeDriver(hw.MX_MYRI10G)]
    size = 1 << 20
    static = dict((d, c) for d, c in sampler.split(drivers, size))
    same = dict((d, c) for d, c in
                sampler.split_contended(drivers, size, lambda d: 0.0))
    assert same == static
    # 1 ms of queueing on the second rail shrinks its share
    slow = dict(sampler.split_contended(
        drivers, size, lambda d: 1e-3 if d is drivers[1] else 0.0))
    assert slow.get(drivers[1], 0) < static[drivers[1]]
    assert sum(slow.values()) == size
