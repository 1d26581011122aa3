"""Selection table semantics: rules, the fixed table, dispatch resolution."""

from __future__ import annotations

import pytest

from repro import config
from repro.campaign.executors import execute_point
from repro.campaign.points import Point, stack_ref
from repro.coll import registry, selector
from repro.coll.selector import TABLE, Rule, choose

import repro.mpi.collectives  # noqa: F401  (registers classic algorithms)


# ---------------------------------------------------------------------------
# Rule matching
# ---------------------------------------------------------------------------

def test_rule_bounds_are_half_open():
    rule = Rule("ring", max_size=1024, max_p=16)
    assert rule.matches(1, 0)
    assert rule.matches(15, 1023)
    assert not rule.matches(4, 1024)      # max_size exclusive
    assert not rule.matches(16, 64)       # max_p exclusive


def test_rule_pow2_restriction():
    only_pow2 = Rule("rabenseifner", pow2=True)
    assert only_pow2.matches(8, 0) and only_pow2.matches(1, 0)
    assert not only_pow2.matches(6, 0)
    only_odd = Rule("ring", pow2=False)
    assert only_odd.matches(6, 0) and not only_odd.matches(8, 0)


# ---------------------------------------------------------------------------
# the fixed table
# ---------------------------------------------------------------------------

def test_first_matching_rule_wins(monkeypatch):
    # at p=8 both later rules match a large call: the earlier one wins
    monkeypatch.setitem(TABLE, "allreduce", (
        Rule("recursive_doubling", max_size=1024),
        Rule("rabenseifner", pow2=True),
        Rule("ring"),
    ))
    assert choose("allreduce", 8, 512) == "recursive_doubling"
    assert choose("allreduce", 8, 4096) == "rabenseifner"
    assert choose("allreduce", 6, 4096) == "ring"


def test_choose_without_catch_all_raises(monkeypatch):
    monkeypatch.setitem(TABLE, "allreduce",
                        (Rule("recursive_doubling", max_size=1024),))
    with pytest.raises(LookupError, match="allreduce at p=8, size=4096"):
        choose("allreduce", 8, 4096)
    with pytest.raises(LookupError):
        choose("allsum", 8, 64)


def test_table_covers_every_collective_with_registered_algorithms():
    assert set(TABLE) == set(registry.COLLECTIVES)
    for coll, rules in TABLE.items():
        assert rules, coll
        for rule in rules:
            registry.get(coll, rule.algorithm)  # raises on unknown names
        # the last rule is a catch-all: calls outside every other
        # region still get an algorithm
        assert rules[-1] == Rule(rules[-1].algorithm), coll
        for p in (1, 2, 3, 7, 8, 64):
            for size in (0, 1, 8192, 32 * 1024, 10**9):
                assert choose(coll, p, size) in registry.names_of(coll)


def test_table_encodes_documented_cutoffs():
    assert choose("allreduce", 8, 4096) == "recursive_doubling"
    assert choose("allreduce", 8, 64 * 1024) == "rabenseifner"
    assert choose("allreduce", 6, 64 * 1024) == "ring"
    assert choose("bcast", 16, 4096) == "binomial"
    assert choose("bcast", 16, 1 << 20) == "scatter_allgather"
    assert choose("bcast", 4, 64 * 1024) == "binomial"


@pytest.mark.parametrize("preset", sorted(config.STACKS))
def test_coll_point_runs_on_every_preset(preset):
    """A ``coll`` campaign point builds and runs on every ``repro
    stacks`` preset (the multirail ones included)."""
    point = Point("test", f"allreduce/p4/1024/{preset}", "coll",
                  {"stack": stack_ref(preset), "nprocs": 4,
                   "collective": "allreduce", "size": 1024,
                   "reps": 1, "warmup": 0})
    result = execute_point(point.config())
    assert result["algorithm"] == "recursive_doubling"
    assert result["per_op"] > 0


# ---------------------------------------------------------------------------
# resolve: force > table > payload fallback
# ---------------------------------------------------------------------------

def test_resolve_follows_the_table():
    assert selector.resolve("allreduce", 8, 64).name == "recursive_doubling"
    assert selector.resolve("allreduce", 8, 1 << 20).name == "rabenseifner"


def test_forced_overrides_and_restores():
    with selector.forced("allreduce", "ring"):
        assert selector.resolve("allreduce", 2, 1).name == "ring"
        with selector.forced("allreduce", "rabenseifner"):
            assert selector.resolve("allreduce", 2, 1).name == "rabenseifner"
        # nesting restores the *outer* force, not the table
        assert selector.resolve("allreduce", 2, 1).name == "ring"
    assert selector.resolve("allreduce", 2, 1).name == "recursive_doubling"


def test_forced_unknown_algorithm_fails_fast():
    with pytest.raises(KeyError):
        with selector.forced("allreduce", "quantum"):
            pass


def test_segmented_algorithm_falls_back_on_opaque_payload():
    # rabenseifner needs a vector; a dict payload retreats to the fallback
    assert selector.resolve("allreduce", 8, 1 << 20,
                            payload={"x": 1}).name == "recursive_doubling"
    assert selector.resolve("allreduce", 8, 1 << 20,
                            payload=[1, 2]).name == "rabenseifner"
    assert selector.resolve("allreduce", 8, 1 << 20,
                            payload=None).name == "rabenseifner"
    # forcing does not bypass payload compatibility either
    with selector.forced("allreduce", "ring"):
        assert selector.resolve("allreduce", 2, 1,
                                payload="blob").name == "recursive_doubling"


def test_registry_fallbacks_are_payload_agnostic():
    for coll in registry.COLLECTIVES:
        fb = registry.fallback_of(coll)
        assert not fb.needs_vector
        assert fb.name in registry.names_of(coll)
