"""NAS Parallel Benchmark communication skeletons (paper Fig. 8).

Each kernel is modeled by its *communication skeleton*: the real
per-iteration message pattern (multipartition sweeps, wavefront
pipelines, transposes, halo exchanges, all-to-alls) with message sizes
derived from the NPB problem classes, plus per-iteration compute time
derived from the official operation counts and a per-kernel effective
rate calibrated to 2009-era Opterons.  A handful of representative
iterations are simulated and scaled to the full iteration count; the
campaign's points (``steady=True``) instead stop once the iteration
times repeat and project the rest (the coarsening documented in
DESIGN.md).

The paper runs BT, CG, EP, FT, SP, MG and LU (IS is excluded there for
lack of datatype support; we provide it as an extension).
"""

from repro.workloads.nas.base import (
    KERNELS,
    KernelClass,
    KernelSpec,
    NasRunResult,
    adjust_procs,
    default_nas_cluster,
    parallel_efficiency,
    run_kernel,
)

# importing the kernel modules registers them in KERNELS
from repro.workloads.nas import bt, cg, ep, ft, is_, lu, mg, sp  # noqa: F401,E402

__all__ = [
    "KERNELS",
    "KernelClass",
    "KernelSpec",
    "NasRunResult",
    "adjust_procs",
    "default_nas_cluster",
    "parallel_efficiency",
    "run_kernel",
]
