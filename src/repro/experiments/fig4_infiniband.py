"""Fig. 4 — InfiniBand performance comparisons (latency and bandwidth).

Paper reference points (Section 4.1.1):

* latency at small sizes: MVAPICH2 1.5 us, Open MPI 1.6 us,
  MPICH2:Nem:Nmad 2.1 us, +300 ns constant with MPI_ANY_SOURCE;
* bandwidth: MVAPICH2 peaks highest (~1400 MiB/s); MPICH2-NewMadeleine
  beats Open MPI at medium sizes despite registering memory on the fly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_series_table
from repro.workloads.netpipe import BANDWIDTH_SIZES, LATENCY_SIZES

MODULE = "fig4_infiniband"

PAPER = {
    "latency_us": {"MVAPICH2": 1.5, "Open MPI": 1.6,
                   "MPICH2:Nem:Nmad:IB": 2.1, "MPICH2:Nem:Nmad:IB w/AS": 2.4},
    "peak_bandwidth_MiBs": {"MVAPICH2": 1400, "MPICH2:Nem:Nmad:IB": 1300,
                            "Open MPI": 1150},
}

#: (series name, stack reference, MPI_ANY_SOURCE receives)
STACKS = [
    ("MVAPICH2", stack_ref("mvapich2"), False),
    ("Open MPI", stack_ref("openmpi_ib"), False),
    ("MPICH2:Nem:Nmad:IB", stack_ref("mpich2_nmad", rails=["ib"]), False),
    ("MPICH2:Nem:Nmad:IB w/AS", stack_ref("mpich2_nmad", rails=["ib"]), True),
]


def _sweeps(fast: bool):
    lat_sizes = LATENCY_SIZES[:6] if fast else LATENCY_SIZES
    bw_sizes = BANDWIDTH_SIZES[::2] if fast else BANDWIDTH_SIZES
    reps = 3 if fast else 10
    return lat_sizes, bw_sizes, reps


def points(fast: bool = False) -> List[Point]:
    """One netpipe point per (panel, stack, size)."""
    lat_sizes, bw_sizes, reps = _sweeps(fast)
    pts = []
    for name, ref, anysrc in STACKS:
        for size in lat_sizes:
            pts.append(Point(MODULE, f"lat/{name}/{size}", "netpipe",
                             {"stack": ref, "size": size, "reps": reps,
                              "anysource": anysrc}))
    for name, ref, _anysrc in STACKS[:3]:
        for size in bw_sizes:
            pts.append(Point(MODULE, f"bw/{name}/{size}", "netpipe",
                             {"stack": ref, "size": size,
                              "reps": max(3, reps // 2)}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    """Rebuild the figure data from ``{point.key: result}``."""
    lat_sizes, bw_sizes, _reps = _sweeps(fast)
    latency = {name: [results[f"lat/{name}/{s}"]["latency"]
                      for s in lat_sizes] for name, _ref, _a in STACKS}
    bandwidth = {name: [results[f"bw/{name}/{s}"]["bandwidth"]
                        for s in bw_sizes] for name, _ref, _a in STACKS[:3]}
    return {"lat_sizes": lat_sizes, "latency": latency,
            "bw_sizes": bw_sizes, "bandwidth": bandwidth}


def render(data: Dict) -> None:
    print_series_table("Fig 4(a): IB latency", data["lat_sizes"],
                       data["latency"], "us one-way", scale=1e6, fmt="8.2f")
    print_series_table("Fig 4(b): IB bandwidth", data["bw_sizes"],
                       data["bandwidth"], "MiB/s", fmt="8.0f")
    print("\npaper reference:", PAPER)
