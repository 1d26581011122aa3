"""Extension experiment: collective-algorithm latency/bandwidth crossovers.

The motivation for size-aware algorithm selection (MPICH's cutoff
tables, Liu et al.'s size-dependent RDMA protocols) is that the winning
collective algorithm *flips* with message size: latency-optimized
algorithms (recursive doubling, binomial tree, Bruck) win small
messages on round count, bandwidth-optimized ones (ring/Rabenseifner
reduce-scatter pipelines, scatter-allgather) win large messages on
bytes moved per link.  This sweep forces every registered algorithm of
each multi-algorithm collective across a (p x size) grid on the
MPICH2-Nmad stack, pins the crossovers, and prints each cell's winner
(``*``) beside the pick of the fixed :data:`repro.coll.selector.TABLE`
(``s``).

Run: ``python -m repro campaign ext_collectives``
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.campaign.points import Point, stack_ref

MODULE = "ext_collectives"

STACK = stack_ref("mpich2_nmad")

#: algorithms per collective, registry order (ties break to the first)
ALGOS: Dict[str, Tuple[str, ...]] = {
    "allreduce": ("recursive_doubling", "rabenseifner", "ring"),
    "bcast": ("binomial", "scatter_allgather"),
    "allgather": ("bruck", "ring"),
    "alltoall": ("bruck", "pairwise"),
}

FULL_PROCS: Tuple[int, ...] = (8, 16)
FULL_SIZES: Tuple[int, ...] = (64, 4096, 65536, 2097152)
#: fast grid still straddles every crossover (64 B vs 2 MiB at p=8)
FAST_PROCS: Tuple[int, ...] = (8,)
FAST_SIZES: Tuple[int, ...] = (64, 2097152)

REPS, WARMUP = 3, 1


def _grid(fast: bool) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    return (FAST_PROCS, FAST_SIZES) if fast else (FULL_PROCS, FULL_SIZES)


def points(fast: bool = False) -> List[Point]:
    """One forced-algorithm collbench point per grid cell."""
    procs, sizes = _grid(fast)
    pts = []
    for coll, algos in ALGOS.items():
        for algo in algos:
            for p in procs:
                for size in sizes:
                    pts.append(Point(
                        MODULE, f"{coll}/{algo}/p{p}/{size}", "coll",
                        {"stack": STACK, "nprocs": p, "collective": coll,
                         "algorithm": algo, "size": size,
                         "reps": REPS, "warmup": WARMUP}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    """Per-cell winners + per-(collective, p) crossover flags."""
    from repro.coll.selector import choose

    procs, sizes = _grid(fast)
    per_op = {key: results[key]["per_op"] for key in sorted(results)}
    winners: Dict[str, str] = {}
    selected: Dict[str, str] = {}
    crossover: Dict[str, bool] = {}
    for coll, algos in ALGOS.items():
        for p in procs:
            for size in sizes:
                cell = min(
                    algos,
                    key=lambda a: (results[f"{coll}/{a}/p{p}/{size}"]["per_op"],
                                   algos.index(a)))
                winners[f"{coll}/p{p}/{size}"] = cell
                selected[f"{coll}/p{p}/{size}"] = choose(coll, p, size)
            crossover[f"{coll}/p{p}"] = (
                winners[f"{coll}/p{p}/{sizes[0]}"]
                != winners[f"{coll}/p{p}/{sizes[-1]}"])
    return {"procs": list(procs), "sizes": list(sizes),
            "algorithms": {coll: list(a) for coll, a in ALGOS.items()},
            "per_op": per_op, "winners": winners, "selected": selected,
            "crossover": crossover}


def render(data: Dict) -> None:
    sizes = data["sizes"]
    for coll, algos in data["algorithms"].items():
        for p in data["procs"]:
            print(f"\n{coll} at p={p} (us/op; * = cell winner, "
                  f"s = table pick)")
            header = f"  {'algorithm':<20}" + "".join(
                f"{s:>14}" for s in sizes)
            print(header)
            for algo in algos:
                cells = []
                for size in sizes:
                    us = data["per_op"][f"{coll}/{algo}/p{p}/{size}"] * 1e6
                    mark = "*" if data["winners"][
                        f"{coll}/p{p}/{size}"] == algo else " "
                    mark += "s" if data["selected"][
                        f"{coll}/p{p}/{size}"] == algo else " "
                    cells.append(f"{us:>11.1f}{mark}")
                print(f"  {algo:<20}" + "".join(f"{c:>14}" for c in cells))
            flips = data["crossover"][f"{coll}/p{p}"]
            print(f"  crossover (small winner != large winner): "
                  f"{'YES' if flips else 'no'}")
    print("\nLatency-optimized algorithms (recursive doubling, binomial,")
    print("Bruck) take the small-message cells; bandwidth-optimized ones")
    print("(Rabenseifner, scatter-allgather, ring, pairwise) take the")
    print("large-message cells — the crossovers the selection table pins.")
