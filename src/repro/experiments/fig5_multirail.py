"""Fig. 5 — heterogeneous multirail (Myri-10G + ConnectX IB).

Paper reference: the split_balance strategy routes small messages on the
fastest rail (latency equals the IB-only curve) and stripes large
payloads across both rails by sampled bandwidth, aggregating to nearly
the sum of the individual rails (~2250 MiB/s with equal halves when the
rails perform equally).
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_series_table
from repro.workloads.netpipe import BANDWIDTH_SIZES, LATENCY_SIZES

MODULE = "fig5_multirail"

PAPER = {
    "small_message_rail": "ib (fastest)",
    "aggregate_bandwidth_MiBs": 2250,
}

STACKS = [
    ("MPICH2:Nmad:MX", stack_ref("mpich2_nmad", rails=["mx"])),
    ("MPICH2:Nmad:IB", stack_ref("mpich2_nmad", rails=["ib"])),
    ("MPICH2:Nmad:Multi-MX-IB", stack_ref("mpich2_nmad", rails=["ib", "mx"])),
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
    for name, ref in STACKS:
        for size in lat_sizes:
            pts.append(Point(MODULE, f"lat/{name}/{size}", "netpipe",
                             {"stack": ref, "size": size, "reps": reps}))
        for size in bw_sizes:
            pts.append(Point(MODULE, f"bw/{name}/{size}", "netpipe",
                             {"stack": ref, "size": size,
                              "reps": max(3, reps // 2)}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    lat_sizes, bw_sizes, _reps = _sweeps(fast)
    latency = {name: [results[f"lat/{name}/{s}"]["latency"]
                      for s in lat_sizes] for name, _ref in STACKS}
    bandwidth = {name: [results[f"bw/{name}/{s}"]["bandwidth"]
                        for s in bw_sizes] for name, _ref in STACKS}
    return {"lat_sizes": lat_sizes, "latency": latency,
            "bw_sizes": bw_sizes, "bandwidth": bandwidth}


def render(data: Dict) -> None:
    print_series_table("Fig 5(a): multirail latency", data["lat_sizes"],
                       data["latency"], "us one-way", scale=1e6, fmt="8.2f")
    print_series_table("Fig 5(b): multirail bandwidth", data["bw_sizes"],
                       data["bandwidth"], "MiB/s", fmt="8.0f")
    print("\npaper reference:", PAPER)
