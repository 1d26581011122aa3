"""Extension experiment: the IS kernel the paper could not run.

The paper excluded NAS IS because "IS needs datatypes support and
MPICH2-NewMadeleine does not handle yet this functionality", and its
conclusion suggests NewMadeleine's optimization schemes could improve
non-contiguous datatype performance.  This reproduction includes a
datatype model (pack/unpack costs for strided layouts), so IS runs —
and we can quantify how much of its time the datatype handling costs by
comparing against a contiguous-layout variant of the same skeleton.

Run: ``python -m repro campaign ext_is_datatypes``
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_grouped_table
from repro.workloads.nas.base import KERNELS, KernelSpec

MODULE = "ext_is_datatypes"

PROCS = [4, 8, 16]

#: (series label, stack reference, kernel name)
SERIES = [
    ("strided (datatypes)", stack_ref("mpich2_nmad"), "is"),
    ("contiguous", stack_ref("mpich2_nmad"), "is-contig"),
    ("strided, MVAPICH2", stack_ref("mvapich2"), "is"),
]


def _contiguous_is() -> KernelSpec:
    """The IS skeleton with the strided key exchange made contiguous."""

    def iteration(comm, ctx, i):
        nkeys = ctx.cls.grid[0]
        p = ctx.p
        yield from comm.compute(ctx.compute_per_iter)
        if p > 1:
            yield from comm.allreduce(size=4 * 1024)
            pair = max(64, 4 * nkeys // (p * p))
            yield from comm.alltoall(size=pair)

    spec = KERNELS["is"]
    return KernelSpec(
        name="is-contig", rate_gflops=spec.rate_gflops,
        classes=spec.classes, iteration=iteration,
        proc_rule=spec.proc_rule, default_sim_iters=spec.default_sim_iters)


def _shape(fast: bool):
    return "A" if fast else "B", (PROCS[:2] if fast else PROCS)


def points(fast: bool = False) -> List[Point]:
    """One NAS point per (series, process count)."""
    cls, procs = _shape(fast)
    pts = []
    for label, ref, kernel in SERIES:
        for p in procs:
            pts.append(Point(MODULE, f"{label}/{p}", "nas",
                             {"stack": ref, "kernel": kernel, "cls": cls,
                              "procs": p}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    cls, procs = _shape(fast)
    tables = {label: [results[f"{label}/{p}"]["time_seconds"]
                      for p in procs] for label, _ref, _k in SERIES}
    return {"class": cls, "procs": procs, "tables": tables}


def render(data: Dict) -> None:
    print_grouped_table(
        f"Extension: NAS IS class {data['class']} "
        "(excluded from the paper's runs)",
        [f"p={p}" for p in data["procs"]], data["tables"],
        "seconds", fmt="9.2f")
    print("\nThe strided/contiguous gap is the datatype pack/unpack cost —")
    print("the overhead the paper hoped NewMadeleine's optimization schemes")
    print("could attack (conclusion, future work).")
