"""ext_collectives determinism: pool width, cache warmth, tracing.

``--workers 4``, ``--workers 1``, and a warm-cache rerun must produce
byte-identical merged data (compared through ``canonical_json``), and
attaching a trace must not move a single simulated timestamp.
"""

from __future__ import annotations

from repro import config
from repro.campaign import ResultCache, canonical_json, run_campaign
from repro.campaign.cache import _as_plain
from repro.simulator import Trace
from repro.workloads.collbench import run_collbench

MODULES = ["ext_collectives"]


def _frozen(report) -> str:
    return canonical_json(_as_plain(report.modules))


def test_parallel_equals_serial() -> None:
    serial = run_campaign(MODULES, fast=True, workers=1, cache=None)
    pooled = run_campaign(MODULES, fast=True, workers=4, cache=None)
    assert serial.points == pooled.points > 0
    assert _frozen(serial) == _frozen(pooled)


def test_cached_rerun_is_byte_identical(tmp_path) -> None:
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_campaign(MODULES, fast=True, workers=2, cache=cache)
    assert cold.cache_misses == cold.points
    warm = run_campaign(MODULES, fast=True, workers=1, cache=cache)
    assert warm.all_cached and warm.cache_misses == 0
    assert _frozen(cold) == _frozen(warm)


def test_fast_grid_still_pins_the_crossovers() -> None:
    data = run_campaign(MODULES, fast=True, cache=None) \
        .modules["ext_collectives"]
    assert all(data["crossover"].values()), data["crossover"]


def test_tracing_does_not_perturb_timing() -> None:
    """Observability is pure measurement: per_op identical on/off."""
    spec = config.mpich2_nmad()
    for coll, algo, size in [("allreduce", "ring", 65536),
                             ("bcast", "scatter_allgather", 65536),
                             ("allgather", "bruck", 1024),
                             ("barrier", "tree", 0)]:
        off = run_collbench(spec, 8, coll, size, algorithm=algo,
                            reps=3, warmup=1)
        on = run_collbench(spec, 8, coll, size, algorithm=algo,
                           reps=3, warmup=1, trace=Trace())
        assert on.per_op == off.per_op, (coll, algo)
        assert on.elapsed == off.elapsed, (coll, algo)
