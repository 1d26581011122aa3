"""Fig. 8 — NAS parallel benchmarks, class C, on the Grid'5000 testbed.

Paper reference: all implementations scale well (exception: SP at 36
processes is poor for everyone — unexplained in the paper and not
reproduced here, see EXPERIMENTS.md); Open MPI lags on EP and LU at
every process count; MPICH2-NewMadeleine is on par with the
network-tailored implementations; the PIOMan variant costs under 3 %
and slightly helps FT and SP.  As in the paper, PIOMan rows are omitted
at 64 processes and for MG/LU (their implementation deadlocked there;
our simulation notes this rather than inventing numbers).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_grouped_table
from repro.workloads.nas import adjust_procs

MODULE = "fig8_nas"

KERNELS = ["bt", "cg", "ep", "ft", "sp", "mg", "lu"]
PROC_COUNTS = [8, 16, 32, 64]

#: configurations in the paper's legend order
STACKS = [
    ("MVAPICH2", stack_ref("mvapich2")),
    ("Open_MPI", stack_ref("openmpi_ib")),
    ("MPICH2-NMad_NO_PIOMan", stack_ref("mpich2_nmad")),
    ("MPICH2-NMad_with_PIOMan", stack_ref("mpich2_nmad_pioman")),
]

#: cases the paper reports as unavailable (deadlocks in their prototype)
PIOMAN_UNAVAILABLE = {("mg",), ("lu",), (64,)}


def _pioman_available(kernel: str, procs: int) -> bool:
    return (kernel,) not in PIOMAN_UNAVAILABLE and (procs,) not in PIOMAN_UNAVAILABLE


def _shape(fast: bool):
    return ("A" if fast else "C"), ([8, 16] if fast else PROC_COUNTS)


def points(fast: bool = False) -> List[Point]:
    """One NAS point per (process count, stack, kernel)."""
    cls, procs = _shape(fast)
    pts = []
    for p in procs:
        for stack_name, ref in STACKS:
            for kernel in KERNELS:
                if (stack_name.endswith("with_PIOMan")
                        and not _pioman_available(kernel, p)):
                    continue
                pts.append(Point(
                    MODULE, f"{p}/{stack_name}/{kernel}", "nas",
                    {"stack": ref, "kernel": kernel, "cls": cls,
                     "procs": adjust_procs(kernel, p)}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    cls, procs = _shape(fast)
    out: Dict[int, Dict[str, List[Optional[float]]]] = {}
    for p in procs:
        table: Dict[str, List[Optional[float]]] = {}
        for stack_name, _ref in STACKS:
            row: List[Optional[float]] = []
            for kernel in KERNELS:
                if (stack_name.endswith("with_PIOMan")
                        and not _pioman_available(kernel, p)):
                    row.append(None)
                    continue
                row.append(results[f"{p}/{stack_name}/{kernel}"]
                           ["time_seconds"])
            table[stack_name] = row
        out[p] = table
    return {"class": cls, "procs": procs, "kernels": KERNELS, "tables": out}


def render(data: Dict) -> None:
    for p in data["procs"]:
        label = {8: "8/9", 32: "32/36"}.get(p, str(p))
        print_grouped_table(
            f"Fig 8: NAS class {data['class']} execution time, "
            f"{label} processes",
            [k.upper() for k in data["kernels"]],
            data["tables"][p], "seconds")
