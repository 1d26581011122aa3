"""Every sink feeds the metrics the same registry, derived views and span.

``TraceMetrics`` subscribes only to the categories it keeps a metric
for, so its traced span (``t_first`` / ``t_last``, which
``nic_busy_fraction`` divides by) must come from every admitted record,
handled or not.
"""

import pytest

from repro import config
from repro.observability import attach_metrics, fresh_id_space
from repro.runtime import run_mpi
from repro.simulator import JsonlTrace, RingTrace, Trace
from repro.workloads.netpipe import pingpong

from tests.observability.helpers import EAGER_SIZE, RDV_SIZE

#: case -> run(sink); each is a traced preset the metrics summarize
_CASES = {
    "eager": lambda sink: run_mpi(
        pingpong(EAGER_SIZE, reps=3, warmup=0), 2,
        config.mpich2_nmad_pioman(progress="pioman"),
        cluster=config.xeon_pair(), trace=sink),
    "rendezvous": lambda sink: run_mpi(
        pingpong(RDV_SIZE, reps=2, warmup=0), 2,
        config.mpich2_nmad(rails=("ib", "mx")),
        cluster=config.xeon_pair(), trace=sink),
}


def _metrics_of(case, sink):
    metrics = attach_metrics(sink)
    fresh_id_space()
    _CASES[case](sink)
    return {"snapshot": metrics.registry.snapshot(),
            "derived": metrics.derived(),
            "span": (metrics.t_first, metrics.t_last)}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_every_sink_feeds_the_same_metrics(case, tmp_path):
    full = Trace()
    want = _metrics_of(case, full)
    assert want["span"] == (full.records[0].time,
                            max(rec.time for rec in full))
    assert want["derived"]["nic_busy_fraction"]
    assert _metrics_of(case, RingTrace(16)) == want
    with JsonlTrace(str(tmp_path / "t.jsonl")) as spill:
        assert _metrics_of(case, spill) == want


def test_span_covers_records_no_metric_is_kept_for():
    # first and last records have no metric handler
    trace = RingTrace(2)
    metrics = attach_metrics(trace)
    trace.append(1e-6, "nmad.seq_check", {"rank": 0})
    trace.append(2e-6, "nic.tx", {"rail": "ib", "size": 64, "dur": 1e-6})
    trace.append(11e-6, "mpich2.op.end", {"rank": 0, "op": "wait"})
    assert (metrics.t_first, metrics.t_last) == (1e-6, 11e-6)
    assert metrics.nic_busy_fraction() == {"ib": pytest.approx(0.1)}


def test_span_is_empty_before_any_record():
    metrics = attach_metrics(Trace())
    assert (metrics.t_first, metrics.t_last) == (None, 0.0)
    assert metrics.nic_busy_fraction() == {}
