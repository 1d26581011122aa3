"""Property tests (hypothesis) for the registration cache and the
dedicated-thread engine's work stealing.

The registration cache is checked against an independently written LRU
oracle over random registration sequences: cost accounting,
hit/miss/evict counters, capacity, and eviction *order* must all match,
and re-registering a resident region must never charge a second pin.
The cache-off mode is proven inert by record-level trace comparison
against a default (knob-less) stack.

The dedicated-thread engine is driven with random submission schedules
across several ranks' queues: no ltask may be lost or executed twice,
and per-rank FIFO order must survive stealing.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.observability.determinism import fresh_id_space
from repro.hardware.params import MemParams, NodeParams
from repro.nmad.drivers.ib import RegistrationCache
from repro.pioman import DedicatedThreadEngine, PIOManParams
from repro.runtime import run_mpi
from repro.simulator import Simulator, Trace
from repro.threads import MarcelScheduler
from repro.workloads.netpipe import pingpong

MEM = MemParams()
CAPACITY = 4096

#: ops: (key, size) registrations
_op = st.tuples(st.integers(min_value=0, max_value=5),
                st.sampled_from([256, 512, 1024, 2048, 4096, 8192]))


class _LruOracle:
    """Independent model of the documented pin-down cache behaviour."""

    def __init__(self, params: MemParams, capacity: int):
        self.params = params
        self.capacity = capacity
        self.regions: "OrderedDict[tuple, int]" = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key, size):
        full = (key, size)
        if full in self.regions:
            self.regions.move_to_end(full)
            self.hits += 1
            return self.params.reg_cache_hit
        self.misses += 1
        cost = self.params.reg_base + size * self.params.reg_per_byte
        if size <= self.capacity:
            while (self.regions
                   and sum(self.regions.values()) + size > self.capacity):
                self.regions.popitem(last=False)
                self.evictions += 1
                cost += self.params.dereg_base
            self.regions[full] = size
        return cost


@given(ops=st.lists(_op, max_size=60))
@settings(max_examples=200, deadline=None)
def test_registration_cache_matches_lru_oracle(ops) -> None:
    cache = RegistrationCache(MEM, CAPACITY)
    oracle = _LruOracle(MEM, CAPACITY)
    for key, size in ops:
        cost, info = cache.lookup(key, size)
        assert cost == pytest.approx(oracle.lookup(key, size))
        assert info["pinned"] == sum(oracle.regions.values())
        assert info["regions"] == len(oracle.regions)
        # invariants after every op
        assert cache.pinned_bytes == sum(oracle.regions.values())
        assert cache.pinned_bytes <= cache.capacity
        assert list(cache._regions) == list(oracle.regions)   # LRU order
        assert (cache.hits, cache.misses, cache.evictions) == \
            (oracle.hits, oracle.misses, oracle.evictions)


@given(key=st.integers(0, 3), size=st.sampled_from([256, 1024, 4096]),
       repeats=st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_no_double_registration_charges(key, size, repeats) -> None:
    cache = RegistrationCache(MEM, CAPACITY)
    first, info = cache.lookup(key, size)
    assert not info["hit"]
    assert first == pytest.approx(MEM.reg_base + size * MEM.reg_per_byte)
    pinned = cache.pinned_bytes
    for _ in range(repeats):
        cost, info = cache.lookup(key, size)
        assert info["hit"]
        assert cost == pytest.approx(MEM.reg_cache_hit)
        assert cache.pinned_bytes == pinned      # no re-pin
    assert cache.misses == 1 and cache.hits == repeats


def test_oversized_region_registered_uncached() -> None:
    cache = RegistrationCache(MEM, CAPACITY)
    cache.lookup("small", 1024)
    cost, info = cache.lookup("huge", CAPACITY + 1)
    assert cost == pytest.approx(
        MEM.reg_base + (CAPACITY + 1) * MEM.reg_per_byte)
    assert not info["hit"] and info["evicted"] == 0
    assert cache.pinned_bytes == 1024            # resident set untouched


def test_capacity_must_be_positive() -> None:
    with pytest.raises(ValueError):
        RegistrationCache(MEM, 0)


def test_cache_off_mode_is_byte_identical_to_default() -> None:
    """``ib_reg_cache=0`` must be indistinguishable from a spec that
    never heard of the knob: identical results and record streams,
    and no ``nmad.reg_cache`` records anywhere."""
    def traced(spec):
        fresh_id_space()
        trace = Trace()
        result = run_mpi(pingpong(262144, reps=3, warmup=1), 2, spec,
                         cluster=config.xeon_pair(), trace=trace)
        return result, trace

    base_result, base_trace = traced(config.mpich2_nmad())
    off_result, off_trace = traced(config.mpich2_nmad(ib_reg_cache=0))
    assert base_result.elapsed == off_result.elapsed
    assert base_result.rank_results == off_result.rank_results
    assert base_trace.first_divergence(off_trace) is None
    assert not [r for r in off_trace if r.category == "nmad.reg_cache"]

    _, on_trace = traced(config.mpich2_nmad(ib_reg_cache=8 << 20))
    assert [r for r in on_trace if r.category == "nmad.reg_cache"]


# ---------------------------------------------------------------------------
# dedicated_thread stealing
# ---------------------------------------------------------------------------

#: submission schedule: (delay in us ticks, rank queue)
_submission = st.tuples(st.integers(min_value=0, max_value=40),
                        st.integers(min_value=0, max_value=3))


def _run_dedicated(schedule):
    """Drive the engine with a timed submission schedule; returns
    (executed ids in order, submitted ids per rank)."""
    sim = Simulator()
    sched = MarcelScheduler(sim, NodeParams(cores=2))
    engine = DedicatedThreadEngine(sim, sched, PIOManParams())
    executed = []
    submitted = {}

    def work(ltask_id):
        def gen():
            executed.append(ltask_id)
            yield sim.timeout(0.2e-6)
        return gen

    def submit(ltask_id, rank):
        submitted.setdefault(rank, []).append(ltask_id)
        engine.submit(work(ltask_id), rank=rank)

    for i, (delay, rank) in enumerate(schedule):
        sim.schedule(delay * 1e-6, submit, i, rank)
    sim.run()
    return executed, submitted


@given(schedule=st.lists(_submission, max_size=30))
@settings(max_examples=100, deadline=None)
def test_no_lost_or_double_executed_ltasks(schedule) -> None:
    executed, submitted = _run_dedicated(schedule)
    assert sorted(executed) == list(range(len(schedule)))   # exactly once
    # stealing must preserve FIFO order within each rank's queue
    for rank, ids in submitted.items():
        ran = [i for i in executed if i in set(ids)]
        assert ran == ids


def test_steals_are_counted_across_rank_queues() -> None:
    executed, _ = _run_dedicated([(0, 0), (0, 1), (0, 2)])
    sim = Simulator()
    sched = MarcelScheduler(sim, NodeParams(cores=2))
    engine = DedicatedThreadEngine(sim, sched, PIOManParams())
    for rank in (0, 1, 2):
        engine.submit(lambda: iter([sim.timeout(0.1e-6)]), rank=rank)
    sim.run()
    assert engine.ltasks_run == 3
    assert engine.steals == 2          # served rank 0, stole from 1 and 2
