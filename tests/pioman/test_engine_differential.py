"""Cross-engine differential harness for the pluggable progress layer.

The refactor of ``repro.pioman.manager`` into ``repro.pioman.engines``
is only safe because the reference engine is *provably* unchanged and
the alternatives differ only where they are documented to.  The
reference engine's record streams are pinned by
``tests/integration/fingerprints.json`` and its figures by the goldens;
this harness covers the alternatives at two zoom levels:

* fig6/fig7-style points re-executed with an explicit per-point engine
  show exactly the documented deltas: manual_poll strictly faster on
  latency, strictly slower on overlap; dedicated_thread never slower
  than the reference on either axis;
* traced preset runs compare record-by-record via
  ``Trace.first_divergence``: deterministic per engine, and genuinely
  divergent across engines (the seam is live, not cosmetic).
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro import config
from repro.campaign import canonical_json, execute_point
from repro.campaign.cache import _as_plain
from repro.campaign.points import Point, stack_ref
from repro.observability.determinism import fresh_id_space
from repro.pioman import ENGINE_KINDS
from repro.runtime import run_mpi
from repro.simulator import Trace
from repro.workloads.netpipe import pingpong

ALTERNATIVES = ("manual_poll", "dedicated_thread")

assert set(ENGINE_KINDS) == {"pioman", "manual_poll", "dedicated_thread"}, \
    "new engine kinds must be added to this differential harness"


# ---------------------------------------------------------------------------
# fig6/fig7-style points re-executed per engine: the documented deltas
# ---------------------------------------------------------------------------

def _lat_point(engine: str) -> Point:
    return Point("ext_progress", f"lat/{engine}/16384", "netpipe",
                 {"stack": stack_ref("mpich2_nmad_pioman", rails=["mx"],
                                     progress=engine),
                  "size": 16384, "reps": 3})


def _overlap_point(engine: str) -> Point:
    return Point("ext_progress", f"overlap/{engine}/262144", "overlap",
                 {"stack": stack_ref("mpich2_nmad_pioman", progress=engine),
                  "size": 262144, "compute": 400e-6, "reps": 2})


def _per_engine(make_point) -> Dict[str, dict]:
    out = {}
    for engine in sorted(ENGINE_KINDS):
        fresh_id_space()
        out[engine] = execute_point(make_point(engine).config())
    return out


def test_latency_deltas_across_engines() -> None:
    lat = {e: r["latency"] for e, r in _per_engine(_lat_point).items()}
    # documented crossover: no sync overhead -> manual_poll wins latency
    assert lat["manual_poll"] < lat["pioman"]
    # no poll_period detection delay -> dedicated also beats the reference
    assert lat["dedicated_thread"] < lat["pioman"]
    assert lat["manual_poll"] < lat["dedicated_thread"]


def test_overlap_deltas_across_engines() -> None:
    snd = {e: r["sending_time"]
           for e, r in _per_engine(_overlap_point).items()}
    # documented crossover: no background progress -> manual_poll loses
    # the overlap the threaded design was built for
    assert snd["manual_poll"] > snd["pioman"]
    # a dedicated progress thread overlaps at least as well
    assert snd["dedicated_thread"] <= snd["pioman"]


def test_explicit_reference_point_matches_default() -> None:
    fresh_id_space()
    explicit = canonical_json(_as_plain(
        execute_point(_lat_point("pioman").config())))
    point = Point("ext_progress", "lat/default/16384", "netpipe",
                  {"stack": stack_ref("mpich2_nmad_pioman", rails=["mx"]),
                   "size": 16384, "reps": 3})
    fresh_id_space()
    default = canonical_json(_as_plain(execute_point(point.config())))
    assert explicit == default


# ---------------------------------------------------------------------------
# record-by-record traced preset comparison
# ---------------------------------------------------------------------------

#: the PIOMan stacks whose engine the traced comparisons swap: case ->
#: rails (one rail, and two under the split_balance strategy)
PIOMAN_PRESETS = {"mpich2_nmad_pioman": ("ib",),
                  "mpich2_nmad_ib_mx": ("ib", "mx")}


def _traced_pingpong(preset: str, engine: str) -> Tuple[object, Trace]:
    fresh_id_space()
    trace = Trace()
    spec = config.mpich2_nmad_pioman(rails=PIOMAN_PRESETS[preset],
                                     progress=engine)
    result = run_mpi(pingpong(16384, reps=4, warmup=1), 2, spec,
                     cluster=config.xeon_pair(), trace=trace)
    return result, trace


@pytest.mark.parametrize("preset", sorted(PIOMAN_PRESETS))
@pytest.mark.parametrize("engine", sorted(ENGINE_KINDS))
def test_each_engine_is_deterministic(preset: str, engine: str) -> None:
    first_result, first_trace = _traced_pingpong(preset, engine)
    again_result, again_trace = _traced_pingpong(preset, engine)
    assert first_result.elapsed == again_result.elapsed
    assert first_result.rank_results == again_result.rank_results
    div = first_trace.first_divergence(again_trace)
    assert div is None, f"{preset}/{engine}: nondeterministic at {div}"


@pytest.mark.parametrize("preset", sorted(PIOMAN_PRESETS))
@pytest.mark.parametrize("engine", sorted(ALTERNATIVES))
def test_alternative_engines_genuinely_diverge(
        preset: str, engine: str) -> None:
    """The seam is live: alternatives change the record stream."""
    _, ref_trace = _traced_pingpong(preset, "pioman")
    alt_result, alt_trace = _traced_pingpong(preset, engine)
    assert alt_result.elapsed > 0
    assert ref_trace.first_divergence(alt_trace) is not None
