"""Seed determinism: identical traces for identical seeded runs."""

from repro import config
from repro.observability import (canonical_records, fresh_id_space,
                                 trace_fingerprint)
from repro.runtime.builder import run_mpi
from repro.simulator import Trace
from repro.workloads.netpipe import pingpong


def _netpipe_trace(spec, seed):
    fresh_id_space()
    trace = Trace()
    run_mpi(pingpong(64 * 1024, reps=3, warmup=0), 2, spec,
            cluster=config.xeon_pair(), trace=trace, seed=seed)
    return trace


def test_multirail_netpipe_trace_is_reproducible():
    spec = config.mpich2_nmad(rails=("ib", "mx"))
    a = _netpipe_trace(spec, seed=99)
    b = _netpipe_trace(spec, seed=99)
    assert list(canonical_records(a)) == list(canonical_records(b))


def test_fingerprint_is_stable_hash():
    spec = config.mpich2_nmad(rails=("ib", "mx"))
    a = _netpipe_trace(spec, seed=7)
    f1, f2 = trace_fingerprint(a), trace_fingerprint(a)
    assert f1 == f2
    assert len(f1) == 64 and int(f1, 16) >= 0  # sha256 hex
