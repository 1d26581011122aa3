"""Extension experiment: topology shifts the collective crossovers.

The :mod:`ext_collectives` sweep ran on the flat full-bisection fabric,
where every pair of nodes is one wire apart and the only contention is
at the NICs.  Real interconnects are link/switch graphs: a 2-D torus
reaches distant nodes over several store-and-forward hops, a k-ary
fat-tree funnels traffic through shared up-links.  Re-running the
crossover grid on routed fabrics (:mod:`repro.hardware.netgraph`)
shows the *winning algorithm itself moves with the topology*:
neighbor-exchange algorithms (ring, Rabenseifner's reduce-scatter
pipeline) keep their traffic on short routes, while
distance-p/2 exchanges (recursive doubling, Bruck) pay full-diameter
routes and collide on shared links.

A second part exercises the contention-aware multirail split
(``split_contention``): rank 0 stripes rendezvous payloads over a flat
ib rail and a ring-routed mx rail while background interference frames
congest the mx route; the mx split share visibly decays as the fabric's
congestion estimate rises, where the static ``split_balance`` profile
would keep overfeeding the congested rail.

Run: ``python -m repro campaign ext_topology``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.points import Point, stack_ref

MODULE = "ext_topology"

STACK = stack_ref("mpich2_nmad")

#: algorithms per collective, registry order (ties break to the first)
ALGOS: Dict[str, Tuple[str, ...]] = {
    "allreduce": ("recursive_doubling", "rabenseifner", "ring"),
    "allgather": ("bruck", "ring"),
}

#: topology preset string per (kind, nprocs); None = flat fabric
TOPOS: Dict[str, Dict[int, Optional[str]]] = {
    "flat": {8: None, 16: None},
    "torus": {8: "torus2d:2x4", 16: "torus2d:4x4"},
    "fattree": {8: "fattree:4", 16: "fattree:4"},
}
TOPO_ORDER: Tuple[str, ...] = ("flat", "torus", "fattree")

FULL_PROCS: Tuple[int, ...] = (8, 16)
FULL_SIZES: Tuple[int, ...] = (4096, 65536, 2097152)
#: the fast grid keeps both observed flips: allreduce@4 KiB flips
#: flat->torus, allreduce@64 KiB flips flat->fattree
FAST_PROCS: Tuple[int, ...] = (8,)
FAST_SIZES: Tuple[int, ...] = (4096, 65536)

REPS, WARMUP = 2, 1

#: the multirail part: 4 nodes, ib flat + mx routed as a 4-ring; the
#: measured flow is node0 -> node1, the interference flow node3 ->
#: node1 shares the directed mx link n0>n1 (ring ties break clockwise)
MR_TOPOLOGY = "ring:4"
MR_SIZE = 1 << 20
MR_MSGS = 8
MR_BG = {"src": 3, "dst": 1, "size": 1 << 20, "period": 2e-05, "count": 400}


def _grid(fast: bool) -> Tuple[Dict[str, Tuple[str, ...]],
                               Tuple[int, ...], Tuple[int, ...]]:
    if fast:
        return {"allreduce": ALGOS["allreduce"]}, FAST_PROCS, FAST_SIZES
    return ALGOS, FULL_PROCS, FULL_SIZES


def points(fast: bool = False) -> List[Point]:
    """Forced-algorithm collbench cells per topology + multirail runs."""
    algos_by_coll, procs, sizes = _grid(fast)
    pts = []
    for coll, algos in algos_by_coll.items():
        for algo in algos:
            for topo in TOPO_ORDER:
                for p in procs:
                    for size in sizes:
                        params = {"stack": STACK, "nprocs": p,
                                  "collective": coll, "algorithm": algo,
                                  "size": size, "reps": REPS,
                                  "warmup": WARMUP}
                        spec = TOPOS[topo][p]
                        if spec is not None:
                            params["topology"] = spec
                        pts.append(Point(
                            MODULE, f"{coll}/{algo}/{topo}/p{p}/{size}",
                            "coll", params))
    mr_stack = stack_ref("mpich2_nmad", rails=["ib", "mx"],
                         strategy="split_contention")
    base = {"stack": mr_stack, "topology": MR_TOPOLOGY, "n_nodes": 4,
            "size": MR_SIZE, "n_msgs": MR_MSGS}
    pts.append(Point(MODULE, "multirail/bg_off", "topo_multirail",
                     dict(base)))
    pts.append(Point(MODULE, "multirail/bg_on", "topo_multirail",
                     dict(base, bg=dict(MR_BG))))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    """Per-topology winners, flip flags, and the split-share response."""
    algos_by_coll, procs, sizes = _grid(fast)
    per_op = {key: res["per_op"] for key, res in sorted(results.items())
              if "per_op" in res}
    winners: Dict[str, str] = {}
    topo_flip: Dict[str, bool] = {}
    for coll, algos in algos_by_coll.items():
        for p in procs:
            for size in sizes:
                for topo in TOPO_ORDER:
                    cell = min(algos, key=lambda a: (
                        results[f"{coll}/{a}/{topo}/p{p}/{size}"]["per_op"],
                        algos.index(a)))
                    winners[f"{coll}/{topo}/p{p}/{size}"] = cell
                flat = winners[f"{coll}/flat/p{p}/{size}"]
                topo_flip[f"{coll}/p{p}/{size}"] = any(
                    winners[f"{coll}/{t}/p{p}/{size}"] != flat
                    for t in TOPO_ORDER[1:])
    mr_off = results["multirail/bg_off"]
    mr_on = results["multirail/bg_on"]
    multirail = {
        "bg_off": mr_off, "bg_on": mr_on,
        # did the split move away from the congested rail?
        "responds": (mr_on["mx_share_last"] < mr_on["mx_share_first"]
                     and mr_on["mx_share_last"] < mr_off["mx_share_last"]),
    }
    return {"procs": list(procs), "sizes": list(sizes),
            "topologies": list(TOPO_ORDER),
            "algorithms": {c: list(a) for c, a in algos_by_coll.items()},
            "per_op": per_op, "winners": winners, "topo_flip": topo_flip,
            "multirail": multirail}


def render(data: Dict) -> None:
    sizes = data["sizes"]
    for coll, algos in data["algorithms"].items():
        for p in data["procs"]:
            print(f"\n{coll} at p={p} — winner per (topology, size), us/op")
            print(f"  {'topology':<10}" + "".join(f"{s:>24}" for s in sizes))
            for topo in data["topologies"]:
                cells = []
                for size in sizes:
                    win = data["winners"][f"{coll}/{topo}/p{p}/{size}"]
                    us = data["per_op"][f"{coll}/{win}/{topo}/p{p}/{size}"]
                    cells.append(f"{win} {us * 1e6:.1f}")
                print(f"  {topo:<10}" + "".join(f"{c:>24}" for c in cells))
            for size in sizes:
                if data["topo_flip"][f"{coll}/p{p}/{size}"]:
                    print(f"  -> winner flips with topology at {size} B")
    mr = data["multirail"]
    print("\nmultirail split over ib(flat) + mx(ring:4), "
          f"{MR_MSGS} x {MR_SIZE} B rendezvous:")
    for label in ("bg_off", "bg_on"):
        r = mr[label]
        print(f"  {label:<7} mx share {r['mx_share_first']:.3f} -> "
              f"{r['mx_share_last']:.3f} "
              f"(observed delay {r['observed_delay'] * 1e6:.1f} us)")
    print(f"  split responds to congestion: "
          f"{'YES' if mr['responds'] else 'no'}")
