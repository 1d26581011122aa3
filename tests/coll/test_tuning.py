"""Autotuner mechanics: grid, winner picking, table folding, fast run."""

from __future__ import annotations

import json

import pytest

from repro import config
from repro.campaign import build_stack
from repro.campaign.cache import ResultCache
from repro.cli import main
from repro.coll import registry, selector
from repro.coll import tuning
from repro.coll.selector import SelectionTable

import repro.mpi.collectives  # noqa: F401  (registers classic algorithms)


def test_tunable_collectives_have_multiple_algorithms():
    tunable = tuning.tunable_collectives()
    assert "allreduce" in tunable and "barrier" in tunable
    assert "reduce" not in tunable      # single algorithm, nothing to tune
    for coll in tunable:
        assert len(registry.names_of(coll)) > 1


def test_tune_points_cover_the_grid():
    procs, sizes = (4, 8), (64, 4096)
    pts = tuning.tune_points(procs=procs, sizes=sizes)
    keys = {p.key for p in pts}
    assert len(keys) == len(pts)        # unique cell keys
    expected = 0
    for coll in tuning.tunable_collectives():
        n_algos = len(registry.names_of(coll))
        n_sizes = 1 if coll == "barrier" else len(sizes)
        expected += n_algos * len(procs) * n_sizes
    assert len(pts) == expected
    # barrier cells are size-0; every point is a "coll" executor point
    for p in pts:
        assert p.kind == "coll"
        if p.params["collective"] == "barrier":
            assert p.params["size"] == 0


@pytest.mark.parametrize("preset", sorted(config.STACKS))
def test_tune_points_resolve_on_every_preset(preset):
    """Every ``repro stacks`` name is a stack coll-tune can sweep."""
    pts = tuning.tune_points(preset, tuning.FAST_PROCS, tuning.FAST_SIZES)
    for point in pts:
        assert build_stack(point.params["stack"]) == config.stack(preset)


def test_cli_tunes_a_multirail_preset(capsys):
    assert main(["coll-tune", "--fast", "--no-cache",
                 "--stack", "mpich2_nmad_multirail"]) == 0
    assert "cells on mpich2_nmad_multirail" in capsys.readouterr().out


def test_tune_points_reject_single_algorithm_collectives():
    with pytest.raises(ValueError, match="nothing to tune"):
        tuning.tune_points(collectives=["reduce"])


def test_pick_winners_argmin_with_registration_order_ties():
    first, second = registry.names_of("allgather")[:2]
    measurements = {
        f"allgather/{first}/p4/64": {"per_op": 2e-6},
        f"allgather/{second}/p4/64": {"per_op": 1e-6},
        # exact tie at 4096: earlier-registered algorithm must win
        f"allgather/{first}/p4/4096": {"per_op": 5e-6},
        f"allgather/{second}/p4/4096": {"per_op": 5e-6},
    }
    winners = tuning.pick_winners(measurements)
    assert winners["allgather/p4/64"] == second
    assert winners["allgather/p4/4096"] == first


def test_bands_are_half_open_and_anchored_at_zero():
    assert tuning._bands([64, 4096, 1024]) == [
        (64, 0, 1024), (1024, 1024, 4096), (4096, 4096, None)]
    assert tuning._bands([8]) == [(8, 0, None)]


def test_build_table_merges_bands_and_appends_catch_all():
    procs, sizes = (4,), (64, 1024, 4096)
    winners = {
        "allgather/p4/64": "bruck",
        "allgather/p4/1024": "bruck",
        "allgather/p4/4096": "ring",
    }
    table = tuning.build_table(winners, procs, sizes)
    rules = table.rules["allgather"]
    # two bands (64+1024 merged) + the unbounded catch-all
    assert [r.algorithm for r in rules] == ["bruck", "ring", "ring"]
    assert rules[0].min_size == 0 and rules[0].max_size == 4096
    assert rules[1].min_size == 4096 and rules[1].max_size is None
    table.validate()
    assert table.choose("allgather", 4, 512) == "bruck"
    assert table.choose("allgather", 4, 1 << 20) == "ring"
    # unmeasured collectives keep their default rules
    assert table.rules["barrier"] == \
        selector.default_table().rules["barrier"]


def test_build_table_skips_redundant_catch_all():
    winners = {"allgather/p4/64": "ring"}
    rules = tuning.build_table(winners, (4,), (64,)).rules["allgather"]
    assert len(rules) == 1
    assert rules[0].algorithm == "ring"
    assert rules[0].min_size == 0 and rules[0].max_size is None
    assert rules[0].min_p == 1 and rules[0].max_p is None


def test_fast_tune_end_to_end(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    report = tuning.tune(fast=True, cache=cache)
    assert report.points == len(report.measurements)
    assert report.cache_misses == report.points
    # every winner is a registered algorithm of its collective
    for key, algo in report.winners.items():
        coll = key.split("/")[0]
        assert algo in registry.names_of(coll)
    report.table.validate()
    # the emitted JSON reloads into an identical, valid table
    again = SelectionTable.loads(report.table.dumps())
    assert again.rules == report.table.rules
    # report serializes clean
    doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert doc["stats"]["points"] == report.points
    assert "winners" in doc and "table" in doc
    text = report.format_summary()
    assert "coll-tune" in text and f"{report.points} cells" in text

    # warm rerun: fully cached, identical winners and table
    warm = tuning.tune(fast=True, cache=cache)
    assert warm.cache_hits == report.points
    assert warm.cache_misses == 0
    assert warm.winners == report.winners
    assert warm.table.to_json()["rules"] == report.table.to_json()["rules"]
