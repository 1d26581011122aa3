"""Fig. 7 — asynchronous progression (communication/computation overlap).

Paper reference: only the PIOMan-backed stack overlaps; its sending
time is ``max(computation, communication)`` while every other stack
measures the sum.  Fig. 7(a): eager messages over MX with 20 us of
computation; Fig. 7(b): rendezvous progression over IB with 400 us.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.points import Point, stack_ref
from repro.experiments.common import print_series_table

MODULE = "fig7_overlap"

EAGER_SIZES = [4 << 10, 16 << 10]
EAGER_COMPUTE = 20e-6
RDV_SIZES = [16 << 10, 64 << 10, 256 << 10, 1 << 20]
RDV_COMPUTE = 400e-6

PAPER = {
    "eager": "PIOMan -> max(comp, comm); MPICH2/Open MPI -> sum",
    "rendezvous": "PIOMan detects the handshake during computation; "
                  "Open MPI, MVAPICH2 and plain MPICH2 do not",
}

EAGER_STACKS = [
    ("Reference (no computation)", stack_ref("mpich2_nmad", rails=["mx"]),
     0.0),
    ("MPICH2:Nem:NMad:MX", stack_ref("mpich2_nmad", rails=["mx"]),
     EAGER_COMPUTE),
    ("MPICH2:Nem:Nmad:PIOMan:MX", stack_ref("mpich2_nmad_pioman",
                                            rails=["mx"]), EAGER_COMPUTE),
    ("Open MPI:BTL:MX", stack_ref("openmpi_btl_mx"), EAGER_COMPUTE),
    ("Open MPI:PML:MX", stack_ref("openmpi_pml_mx"), EAGER_COMPUTE),
]

RDV_STACKS = [
    ("Reference (no computation)", stack_ref("mpich2_nmad"), 0.0),
    ("MPICH2:Nem:NMad:IB", stack_ref("mpich2_nmad"), RDV_COMPUTE),
    ("MPICH2:Nem:Nmad:PIOMan:IB", stack_ref("mpich2_nmad_pioman"),
     RDV_COMPUTE),
    ("Open MPI", stack_ref("openmpi_ib"), RDV_COMPUTE),
    ("MVAPICH2", stack_ref("mvapich2"), RDV_COMPUTE),
]


def _reps(fast: bool) -> int:
    return 2 if fast else 5


def points(fast: bool = False) -> List[Point]:
    """One overlap point per (panel, stack, size)."""
    reps = _reps(fast)
    pts = []
    for name, ref, comp in EAGER_STACKS:
        for size in EAGER_SIZES:
            pts.append(Point(MODULE, f"eager/{name}/{size}", "overlap",
                             {"stack": ref, "size": size, "compute": comp,
                              "reps": reps}))
    for name, ref, comp in RDV_STACKS:
        for size in RDV_SIZES:
            pts.append(Point(MODULE, f"rdv/{name}/{size}", "overlap",
                             {"stack": ref, "size": size, "compute": comp,
                              "reps": reps}))
    return pts


def merge(results: Dict[str, dict], fast: bool = False) -> Dict:
    eager = {name: [results[f"eager/{name}/{s}"]["sending_time"]
                    for s in EAGER_SIZES]
             for name, _ref, _c in EAGER_STACKS}
    rdv = {name: [results[f"rdv/{name}/{s}"]["sending_time"]
                  for s in RDV_SIZES]
           for name, _ref, _c in RDV_STACKS}
    return {"eager_sizes": EAGER_SIZES, "eager": eager,
            "rdv_sizes": RDV_SIZES, "rdv": rdv}


def render(data: Dict) -> None:
    print_series_table("Fig 7(a): overlapping eager messages over MX "
                       f"(compute = {EAGER_COMPUTE*1e6:.0f} us)",
                       data["eager_sizes"], data["eager"],
                       "us sending time", scale=1e6, fmt="8.1f")
    print_series_table("Fig 7(b): rendezvous progress over IB "
                       f"(compute = {RDV_COMPUTE*1e6:.0f} us)",
                       data["rdv_sizes"], data["rdv"],
                       "us sending time", scale=1e6, fmt="8.0f")
    print("\npaper reference:", PAPER)
