"""Extension experiment: where the 2009 threaded progress stops winning.

The paper argues PIOMan's threaded progress engine is worth its
synchronization overhead because it buys communication/computation
overlap (Fig. 6 vs Fig. 7).  Zhou et al. 2024 ("MPI Progress For All")
catalogs the wider design space; with the pluggable engine layer
(:mod:`repro.pioman.engines`) this experiment re-runs both sweeps
across three engines and two registration modes, pinning the
crossovers:

* **latency** (Fig. 6 axis, mx rail): ``manual_poll`` pays *no*
  per-message synchronization, so it beats the threaded engine on raw
  ping-pong latency at every size — the threaded design loses the
  latency axis outright.  ``dedicated_thread`` shaves the
  ``poll_period`` detection delay and sits between the two.
* **overlap** (Fig. 7 axis, ib rendezvous): ``manual_poll`` cannot
  progress the rendezvous while the application computes, so its
  sending time collapses to the no-overlap case; the threaded and
  dedicated engines both hide the transfer (the 2009 claim survives,
  but a dedicated progress thread matches it without losing latency).
* **registration** (Liu et al. pin-down cache in the IB driver):
  cached registration beats the paper's on-the-fly mode as soon as
  buffers are reused, and a churn workload whose working set exceeds
  the cache capacity exposes the LRU eviction cost.

Run: ``python -m repro campaign ext_progress``
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.campaign.points import Point, stack_ref

MODULE = "ext_progress"

#: every engine in repro.pioman.engines.ENGINE_KINDS, reference first
ENGINES: Tuple[str, ...] = ("pioman", "manual_poll", "dedicated_thread")

#: latency part (Fig. 6 axis): inter-node ping-pong over mx
FULL_LAT_SIZES: Tuple[int, ...] = (4, 1024, 16384)
FAST_LAT_SIZES: Tuple[int, ...] = (4, 16384)

#: overlap part (Fig. 7 axis): ib rendezvous with computation posted
#: between isend and wait
FULL_OVERLAP_SIZES: Tuple[int, ...] = (65536, 262144, 1048576)
FAST_OVERLAP_SIZES: Tuple[int, ...] = (262144,)
OVERLAP_COMPUTE = 400e-6

#: registration part: rendezvous ping-pong, cache off vs 8 MiB
FULL_REG_SIZES: Tuple[int, ...] = (262144, 1048576)
FAST_REG_SIZES: Tuple[int, ...] = (1048576,)
REG_CAPACITY = 8 << 20

#: churn part: cycled working set (1.75 MiB) > 1 MiB cache capacity
CHURN_CAPACITY = 1 << 20
CHURN_SIZES: Tuple[int, ...] = (262144, 524288, 1048576)
CHURN_ROUNDS = 3


def _sweeps(fast: bool):
    if fast:
        return FAST_LAT_SIZES, FAST_OVERLAP_SIZES, FAST_REG_SIZES, 3, 2
    return FULL_LAT_SIZES, FULL_OVERLAP_SIZES, FULL_REG_SIZES, 10, 5


def _lat_stack(engine: str) -> dict:
    if engine == "none":
        return stack_ref("mpich2_nmad", rails=["mx"])
    return stack_ref("mpich2_nmad_pioman", rails=["mx"], progress=engine)


def _overlap_stack(engine: str) -> dict:
    if engine == "none":
        return stack_ref("mpich2_nmad")
    return stack_ref("mpich2_nmad_pioman", progress=engine)


def points(fast: bool = False) -> List[Point]:
    lat_sizes, overlap_sizes, reg_sizes, lat_reps, ov_reps = _sweeps(fast)
    pts = []
    for engine in ("none",) + ENGINES:
        for size in lat_sizes:
            pts.append(Point(MODULE, f"lat/{engine}/{size}", "netpipe",
                             {"stack": _lat_stack(engine), "size": size,
                              "reps": lat_reps}))
        for size in overlap_sizes:
            pts.append(Point(MODULE, f"overlap/{engine}/{size}", "overlap",
                             {"stack": _overlap_stack(engine), "size": size,
                              "compute": OVERLAP_COMPUTE, "reps": ov_reps}))
    for mode, cap in (("off", 0), ("on", REG_CAPACITY)):
        for size in reg_sizes:
            pts.append(Point(MODULE, f"regcache/{mode}/{size}", "netpipe",
                             {"stack": stack_ref("mpich2_nmad",
                                                 ib_reg_cache=cap),
                              "size": size, "reps": ov_reps}))
    for mode, cap in (("off", 0), ("on", CHURN_CAPACITY)):
        pts.append(Point(MODULE, f"churn/{mode}", "reg_churn",
                         {"stack": stack_ref("mpich2_nmad",
                                             ib_reg_cache=cap),
                          "sizes": list(CHURN_SIZES),
                          "rounds": CHURN_ROUNDS}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    """Per-axis series, winners, and the crossover verdicts."""
    lat_sizes, overlap_sizes, reg_sizes, _, _ = _sweeps(fast)
    labels = ("none",) + ENGINES
    lat = {f"{e}/{s}": results[f"lat/{e}/{s}"]["latency"]
           for e in labels for s in lat_sizes}
    overlap = {f"{e}/{s}": results[f"overlap/{e}/{s}"]["sending_time"]
               for e in labels for s in overlap_sizes}
    regcache = {f"{m}/{s}": results[f"regcache/{m}/{s}"]["latency"]
                for m in ("off", "on") for s in reg_sizes}
    churn = {m: results[f"churn/{m}"] for m in ("off", "on")}

    winners: Dict[str, str] = {}
    for size in lat_sizes:
        winners[f"lat/{size}"] = min(
            ENGINES, key=lambda e: (lat[f"{e}/{size}"], ENGINES.index(e)))
    for size in overlap_sizes:
        winners[f"overlap/{size}"] = min(
            ENGINES, key=lambda e: (overlap[f"{e}/{size}"],
                                    ENGINES.index(e)))

    crossover = {
        # the 2009 threaded design loses the latency axis outright
        "manual_poll_beats_threaded_lat": all(
            lat[f"manual_poll/{s}"] < lat[f"pioman/{s}"]
            for s in lat_sizes),
        "dedicated_beats_threaded_lat": all(
            lat[f"dedicated_thread/{s}"] < lat[f"pioman/{s}"]
            for s in lat_sizes),
        # ...but keeps the overlap axis against manual polling
        "manual_poll_loses_overlap": all(
            overlap[f"manual_poll/{s}"] > overlap[f"pioman/{s}"]
            for s in overlap_sizes),
        # a dedicated progress thread overlaps at least as well
        "dedicated_matches_overlap": all(
            overlap[f"dedicated_thread/{s}"] <= overlap[f"pioman/{s}"]
            for s in overlap_sizes),
        # cached registration beats on-the-fly once buffers are reused
        "cache_beats_onthefly": all(
            regcache[f"on/{s}"] < regcache[f"off/{s}"] for s in reg_sizes),
        # the churn working set (1.75 MiB) overflows the 1 MiB cache
        "churn_evicts": churn["on"]["evictions"] > 0,
        # ...and with zero reuse the cache *loses*: every lookup pays
        # the full pin cost plus the LRU deregistrations
        "cache_loses_under_churn": (churn["on"]["elapsed"]
                                    > churn["off"]["elapsed"]),
    }
    return {"engines": list(labels),
            "lat_sizes": list(lat_sizes),
            "overlap_sizes": list(overlap_sizes),
            "reg_sizes": list(reg_sizes),
            "lat": lat, "overlap": overlap, "regcache": regcache,
            "churn": churn, "winners": winners, "crossover": crossover}


def render(data: Dict) -> None:
    print("ping-pong latency over mx (Fig. 6 axis), us")
    print(f"  {'engine':<18}"
          + "".join(f"{s:>12}" for s in data["lat_sizes"]))
    for engine in data["engines"]:
        row = "".join(f"{data['lat'][f'{engine}/{s}'] * 1e6:>12.3f}"
                      for s in data["lat_sizes"])
        print(f"  {engine:<18}{row}")
    for size in data["lat_sizes"]:
        print(f"  -> winner at {size} B: {data['winners'][f'lat/{size}']}")

    print(f"\nsender-side time with {OVERLAP_COMPUTE * 1e6:.0f} us of "
          "computation posted (Fig. 7 axis, ib rendezvous), us")
    print(f"  {'engine':<18}"
          + "".join(f"{s:>12}" for s in data["overlap_sizes"]))
    for engine in data["engines"]:
        row = "".join(f"{data['overlap'][f'{engine}/{s}'] * 1e6:>12.1f}"
                      for s in data["overlap_sizes"])
        print(f"  {engine:<18}{row}")

    print("\nib registration: on-the-fly vs pin-down cache, "
          "rendezvous ping-pong latency, us")
    for size in data["reg_sizes"]:
        off, on = (data["regcache"][f"off/{size}"],
                   data["regcache"][f"on/{size}"])
        print(f"  {size:>8} B: {off * 1e6:9.1f} -> {on * 1e6:9.1f} "
              f"({off / on:.3f}x)")
    churn = data["churn"]
    print(f"\nchurn (working set {sum(CHURN_SIZES) >> 10} KiB vs "
          f"{CHURN_CAPACITY >> 10} KiB cache): "
          f"{churn['on']['hits']} hits, {churn['on']['misses']} misses, "
          f"{churn['on']['evictions']} evictions; elapsed "
          f"{churn['off']['elapsed'] * 1e3:.3f} -> "
          f"{churn['on']['elapsed'] * 1e3:.3f} ms")
    print("\ncrossovers:")
    for name, value in data["crossover"].items():
        print(f"  {name}: {'YES' if value else 'no'}")
