"""Streaming trace sinks: ring buffer, JSONL spill, sampling, subscribers."""

import json

import pytest

from repro.simulator import (JsonlTrace, RingTrace, Simulator, Trace,
                             TraceSampler, load_trace_jsonl)


# -- ring buffer ---------------------------------------------------------
def test_ring_retains_only_capacity():
    trace = RingTrace(4)
    for i in range(10):
        trace.append(i * 1e-6, "nic.tx", {"node": 0, "i": i})
    assert len(trace) == 4
    assert trace.evicted == 6
    assert trace.seen == 10
    # retained window is the newest records, oldest first
    assert [rec.data["i"] for rec in trace] == [6, 7, 8, 9]


def test_ring_lifetime_counts_survive_eviction():
    trace = RingTrace(2)
    for i in range(5):
        trace.append(i * 1e-6, "nic.tx", {"node": 0})
    trace.append(9e-6, "nmad.send_post", {"src": 0})
    assert trace.lifetime_count("nic.tx") == 5
    assert trace.lifetime_count("nmad.send_post") == 1
    assert trace.categories_seen() == ["nic.tx", "nmad.send_post"]
    # filter/count see the retained window only
    assert trace.count("nic.tx") == 1


def test_ring_subscribers_stream_past_eviction():
    trace = RingTrace(2)
    seen = []
    trace.subscribe(lambda rec: seen.append(rec.data["i"]))
    for i in range(7):
        trace.append(i * 1e-6, "nic.tx", {"node": 0, "i": i})
    assert seen == list(range(7))


def test_ring_capacity_validated():
    with pytest.raises(ValueError):
        RingTrace(0)


def test_ring_bounds_memory_on_simulator_run():
    sim = Simulator(trace=RingTrace(8))

    def proc():
        for i in range(100):
            sim.record("nic.tx", node=0, i=i)
            yield sim.timeout(1e-9)

    sim.spawn(proc())
    sim.run()
    assert len(sim.trace) == 8
    assert sim.trace.seen == 100


# -- JSONL spill ---------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with JsonlTrace(path) as trace:
        trace.append(1e-6, "nic.tx", {"node": 0, "dur": 2e-6})
        trace.append(3e-6, "nmad.send_post", {"src": 1, "hdr": (1, 2)})
        assert len(trace) == 0          # nothing retained in memory
        assert trace.seen == 2
    loaded = load_trace_jsonl(path)
    assert len(loaded) == 2
    assert [rec.category for rec in loaded] == ["nic.tx", "nmad.send_post"]
    assert loaded.records[0].time == 1e-6
    assert loaded.records[0].data["dur"] == 2e-6
    # tuples survive as lists (JSON has no tuple type)
    assert loaded.records[1].data["hdr"] == [1, 2]


def test_jsonl_lines_are_valid_json(tmp_path):
    path = str(tmp_path / "t.jsonl")
    trace = JsonlTrace(path)
    trace.append(0.0, "nic.tx", {"node": 0, "obj": object()})
    trace.close()
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows[0]["category"] == "nic.tx"
    assert isinstance(rows[0]["data"]["obj"], str)   # repr fallback


def test_jsonl_subscribers_fire(tmp_path):
    trace = JsonlTrace(str(tmp_path / "t.jsonl"))
    seen = []
    trace.subscribe(lambda rec: seen.append(rec.category))
    trace.append(0.0, "nic.tx", {"node": 0})
    trace.close()
    assert seen == ["nic.tx"]


# -- sampling ------------------------------------------------------------
def test_sampler_stride_by_category_is_deterministic():
    def run():
        trace = Trace(sampler=TraceSampler(strides={"pioman.poll": 3}))
        for i in range(10):
            trace.append(i * 1e-6, "pioman.poll", {"node": 0, "i": i})
        return [rec.data["i"] for rec in trace]

    first, second = run(), run()
    assert first == second == [0, 3, 6, 9]


def test_sampler_stride_by_layer_and_exemptions():
    sampler = TraceSampler(strides={"nic": 4})
    trace = Trace(sampler=sampler)
    for i in range(8):
        trace.append(i * 1e-6, "nic.tx", {"node": 0})
    # begin/end pairs are never stride-sampled (span pairing would break)
    for i in range(4):
        trace.append(i * 1e-6, "mpich2.op.begin", {"rank": 0, "op": "send"})
        trace.append(i * 1e-6 + 1e-7, "mpich2.op.end",
                     {"rank": 0, "op": "send"})
    assert trace.count("nic.tx") == 2            # every 4th of 8
    assert trace.count("mpich2.op.begin") == 4   # exempt
    assert trace.sampled_out == 6


def test_sampler_entity_filter():
    trace = Trace(sampler=TraceSampler(entities=[0]))
    trace.append(0.0, "nmad.send_post", {"src": 0})
    trace.append(0.0, "nmad.send_post", {"src": 1})
    trace.append(0.0, "strategy.flush", {})      # no entity -> admitted
    assert trace.count("nmad.send_post") == 1
    assert trace.count("strategy.flush") == 1
    assert trace.sampled_out == 1


def test_sampler_rejects_bad_stride():
    with pytest.raises(ValueError):
        TraceSampler(strides={"nic": 0})


# -- subscriber lifecycle ------------------------------------------------
def test_unsubscribe_stops_delivery():
    trace = Trace()
    seen = []
    fn = seen.append
    trace.subscribe(fn)
    trace.append(0.0, "nic.tx", {"node": 0})
    trace.unsubscribe(fn)
    trace.append(1e-6, "nic.tx", {"node": 0})
    assert len(seen) == 1
    assert len(trace) == 2
    # unknown / repeated unsubscribe is a no-op
    trace.unsubscribe(fn)


def test_raising_subscriber_never_loses_records():
    def bad(rec):
        raise RuntimeError("boom")

    # every sink admits through one path: same behaviour for each, for
    # subscribers of every record and for category-routed ones
    for make_sink in (Trace, lambda: RingTrace(8)):
        for categories in (None, {"nic.tx"}):
            trace = make_sink()
            good = []
            trace.subscribe(bad, categories=categories)
            trace.subscribe(good.append, categories=categories)
            trace.append(0.0, "nic.tx", {"node": 0})
            trace.append(5e-7, "nmad.send_post", {"src": 0})
            trace.append(1e-6, "nic.tx", {"node": 0})
            # every record was appended and the healthy subscriber saw
            # all it subscribed to
            assert len(trace) == 3
            assert [rec.category for rec in good] == (
                ["nic.tx", "nmad.send_post", "nic.tx"] if categories is None
                else ["nic.tx", "nic.tx"])
            # the raising subscriber was detached after its first failure
            assert len(trace.subscriber_errors) == 1
            fn, exc = trace.subscriber_errors[0]
            assert fn is bad
            assert isinstance(exc, RuntimeError)


def test_routed_subscriber_sees_only_its_categories():
    trace = RingTrace(4)
    routed, everything = [], []
    trace.subscribe(routed.append, categories=["nic.tx", "nic.rx"])
    trace.subscribe(everything.append)
    for category in ("nic.tx", "nmad.send_post", "nic.rx", "nic.tx"):
        trace.append(0.0, category, {"node": 0})
    assert [rec.category for rec in routed] == ["nic.tx", "nic.rx", "nic.tx"]
    assert len(everything) == 4
    # unsubscribing re-routes from the next record on
    trace.unsubscribe(routed.append)
    trace.append(1e-6, "nic.tx", {"node": 0})
    assert len(routed) == 3 and len(everything) == 5
    with pytest.raises(TypeError):
        trace.subscribe(routed.append, categories="nic.tx")
