"""Fig. 6 — raw overhead of PIOMan's centralized progression.

Paper reference: PIOMan adds ~450 ns to intra-node latency (thread-safe
synchronization) and ~2 us on the network path (request lists and
drivers must be protected from concurrent access); both overheads are
constant in message size.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_series_table
from repro.workloads.netpipe import LATENCY_SIZES

MODULE = "fig6_pioman_overhead"

PAPER = {
    "shm_overhead_us": 0.45,
    "network_overhead_us": 2.0,
}

SHM_STACKS = [
    ("MPICH2:Nemesis", stack_ref("mpich2_nmad")),
    ("MPICH2:Nemesis:PIOMan", stack_ref("mpich2_nmad_pioman")),
    ("Open MPI", stack_ref("openmpi_ib")),
]

MX_STACKS = [
    ("Open MPI:PML:MX", stack_ref("openmpi_pml_mx")),
    ("Open MPI:BTL:MX", stack_ref("openmpi_btl_mx")),
    ("MPICH2:Nem:Nmad:MX", stack_ref("mpich2_nmad", rails=["mx"])),
    ("MPICH2:Nem:Nmad:PIOM:MX", stack_ref("mpich2_nmad_pioman",
                                          rails=["mx"])),
]


def _sweeps(fast: bool):
    sizes = LATENCY_SIZES[:6] if fast else LATENCY_SIZES
    reps = 3 if fast else 10
    return sizes, reps


def points(fast: bool = False) -> List[Point]:
    """One netpipe point per (panel, stack, size)."""
    sizes, reps = _sweeps(fast)
    pts = []
    for name, ref in SHM_STACKS:
        for size in sizes:
            pts.append(Point(MODULE, f"shm/{name}/{size}", "netpipe",
                             {"stack": ref, "size": size, "reps": reps,
                              "intra_node": True}))
    for name, ref in MX_STACKS:
        for size in sizes:
            pts.append(Point(MODULE, f"mx/{name}/{size}", "netpipe",
                             {"stack": ref, "size": size, "reps": reps}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    sizes, _reps = _sweeps(fast)
    shm = {name: [results[f"shm/{name}/{s}"]["latency"] for s in sizes]
           for name, _ref in SHM_STACKS}
    mx = {name: [results[f"mx/{name}/{s}"]["latency"] for s in sizes]
          for name, _ref in MX_STACKS}
    return {"sizes": sizes, "shm": shm, "mx": mx}


def render(data: Dict) -> None:
    print_series_table("Fig 6(a): latency over shared memory", data["sizes"],
                       data["shm"], "us one-way", scale=1e6, fmt="8.2f")
    print_series_table("Fig 6(b): latency over Myrinet MX", data["sizes"],
                       data["mx"], "us one-way", scale=1e6, fmt="8.2f")
    print("\npaper reference:", PAPER)
