"""Per-run campaign telemetry lands beside the content-addressed cache."""

import json

from repro.campaign import ResultCache, run_campaign
from repro.cli import main


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_campaign_appends_telemetry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    report = run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)
    assert report.telemetry_path == cache.telemetry_path

    rows = _read_jsonl(cache.telemetry_path)
    assert len(rows) == 1
    entry = rows[0]
    assert entry["points"] == report.points
    assert entry["cache_hits"] == 0
    assert entry["cache_misses"] == report.points
    assert entry["wall_seconds"] > 0
    assert len(entry["per_point"]) == report.points
    first = entry["per_point"][0]
    assert first["module"] == "ext_stencil_overlap"
    assert not first["cached"]
    assert first["elapsed"] > 0
    assert entry["executed_seconds"] >= first["elapsed"]


def test_warm_rerun_appends_hit_entry(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)
    warm = run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)
    assert warm.all_cached

    rows = _read_jsonl(cache.telemetry_path)
    assert len(rows) == 2
    entry = rows[1]
    assert entry["cache_hits"] == warm.points
    assert entry["cache_misses"] == 0
    assert entry["executed_seconds"] == 0.0
    assert all(p["cached"] for p in entry["per_point"])


def test_no_cache_means_no_telemetry():
    report = run_campaign(["ext_stencil_overlap"], fast=True, cache=None)
    assert report.telemetry_path is None


def test_torn_tail_line_does_not_swallow_the_next_run(tmp_path, capsys):
    """A crash mid-append leaves a line without its newline; the next
    run's record must still parse, and ``repro perf`` must count it."""
    cache_dir = str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)
    with open(cache.telemetry_path, "a") as fh:
        fh.write('{"run_started": 1.0, "wall_sec')    # torn append
    run_campaign(["ext_stencil_overlap"], fast=True, cache=cache)

    with open(cache.telemetry_path) as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""
    parsed = []
    for line in lines[:-1]:
        try:
            parsed.append(json.loads(line))
        except ValueError:
            assert line.startswith('{"run_started": 1.0')
    assert [row["cache_misses"] == 0 for row in parsed] == [False, True]

    assert main(["perf", "--cache-dir", cache_dir]) == 0
    assert "(2 of 2 run(s)" in capsys.readouterr().out
