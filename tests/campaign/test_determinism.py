"""Campaign determinism: workers=N == workers=1 == warm cached rerun.

The merged data is compared through ``canonical_json`` after dataclass
flattening, so "equal" here means *byte-identical serialized results* —
not approximately equal.  These tests use the fast sweeps of two cheap
modules to keep wall time bounded.
"""

from __future__ import annotations

from repro.campaign import ResultCache, canonical_json, run_campaign
from repro.campaign.cache import _as_plain

MODULES = ["fig6_pioman_overhead", "ext_stencil_overlap"]


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
    assert len(cache) == cold.points
    warm = run_campaign(MODULES, fast=True, workers=1, cache=cache)
    assert warm.all_cached
    assert warm.cache_misses == 0
    assert _frozen(cold) == _frozen(warm)


def test_force_recomputes_but_matches(tmp_path) -> None:
    cache = ResultCache(str(tmp_path / "cache"))
    first = run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)
    forced = run_campaign(["ext_stencil_overlap"], fast=True, cache=cache,
                          force=True)
    assert forced.cache_hits == 0
    assert forced.cache_misses == forced.points
    assert _frozen(first) == _frozen(forced)


def test_report_stats_and_metrics(tmp_path) -> None:
    cache = ResultCache(str(tmp_path / "cache"))
    report = run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)
    stats = report.stats()
    assert stats["points"] == report.points
    assert stats["per_module"]["ext_stencil_overlap"]["points"] \
        == report.points
    assert report.registry is not None
    assert report.registry.counter("campaign.points").value == report.points
    assert report.registry.counter("campaign.cache_misses").value \
        == report.points
    # the whole report must be JSON-serializable (dataclasses flattened)
    import json

    text = json.dumps(report.to_dict(), sort_keys=True)
    assert "ext_stencil_overlap" in text
