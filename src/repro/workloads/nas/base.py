"""Kernel registry, process-grid helpers, and the NAS runner."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.config import ClusterSpec, StackSpec, grid5000
from repro.runtime import run_mpi


@dataclass(frozen=True)
class KernelClass:
    """One NPB problem class of one kernel."""

    name: str          # "A" | "B" | "C"
    gop: float         # total operation count (Gop, from NPB reports)
    iters: int         # time-step count
    grid: Tuple[int, ...]  # problem dimensions (kernel-specific meaning)


@dataclass
class KernelSpec:
    """A registered NAS kernel skeleton."""

    name: str
    #: effective per-core rate (GF/s) calibrated to the paper's Opterons
    rate_gflops: float
    classes: Dict[str, KernelClass]
    #: generator(comm, ctx, iteration_index) performing one time step
    iteration: Callable
    #: process-count constraint ("pow2" | "square" | "any")
    proc_rule: str = "pow2"
    #: how many representative iterations to actually simulate
    default_sim_iters: int = 10
    #: optional generator(comm, ctx) run once before timing
    setup: Optional[Callable] = None

    def cpu_seconds(self, cls: str) -> float:
        """Total single-core CPU seconds for the whole run."""
        return self.classes[cls].gop / self.rate_gflops

    def validate_procs(self, p: int) -> None:
        if self.proc_rule == "pow2" and (p & (p - 1)) != 0:
            raise ValueError(f"{self.name} needs a power-of-two process count, got {p}")
        if self.proc_rule == "square" and math.isqrt(p) ** 2 != p:
            raise ValueError(f"{self.name} needs a square process count, got {p}")


@dataclass
class KernelContext:
    """Per-run precomputed layout handed to iteration generators."""

    kernel: KernelSpec
    cls: KernelClass
    p: int
    compute_per_iter: float   # seconds of CPU per rank per iteration
    extras: dict = field(default_factory=dict)


#: global kernel registry (populated by the kernel modules at import)
KERNELS: Dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    KERNELS[spec.name] = spec
    return spec


# ---------------------------------------------------------------------------
# process-grid helpers
# ---------------------------------------------------------------------------

def adjust_procs(kernel_name: str, p: int) -> int:
    """The paper's substitution: 8→9 and 32→36 for square kernels."""
    spec = KERNELS[kernel_name]
    if spec.proc_rule == "square" and math.isqrt(p) ** 2 != p:
        q = math.isqrt(p)
        return (q + 1) * (q + 1) if (q + 1) ** 2 - p <= p - q * q else q * q
    return p


def square_side(p: int) -> int:
    q = math.isqrt(p)
    if q * q != p:
        raise ValueError(f"{p} is not a square process count")
    return q


def grid_2d(p: int) -> Tuple[int, int]:
    """Near-square 2D factorization (px >= py, px*py == p)."""
    px = math.isqrt(p)
    while p % px != 0:
        px -= 1
    return max(px, p // px), min(px, p // px)


def grid_3d(p: int) -> Tuple[int, int, int]:
    """Near-cubic 3D factorization."""
    best = (p, 1, 1)
    c = round(p ** (1 / 3))
    for fx in range(max(1, c - 2), p + 1):
        if p % fx:
            continue
        fy, fz = grid_2d(p // fx)
        cand = tuple(sorted((fx, fy, fz), reverse=True))
        if max(cand) / min(cand) < max(best) / min(best):
            best = cand
        if fx > c + 2:
            break
    return best


def torus_neighbors_2d(rank: int, px: int, py: int):
    """(north, south, west, east) on a (px, py) torus, row-major."""
    x, y = rank // py, rank % py
    return (
        ((x - 1) % px) * py + y,
        ((x + 1) % px) * py + y,
        x * py + (y - 1) % py,
        x * py + (y + 1) % py,
    )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass
class NasRunResult:
    """Outcome of one kernel x class x process-count x stack run."""

    kernel: str
    cls: str
    nprocs: int
    stack: str
    time_seconds: float        # projected full-run execution time
    simulated_iters: int
    total_iters: int


def default_nas_cluster(p: int) -> Tuple[ClusterSpec, int]:
    """The Grid'5000 placement: at most 10 nodes, ranks packed evenly."""
    rpn = math.ceil(p / 10)
    n_nodes = math.ceil(p / rpn)
    return grid5000(n_nodes=n_nodes), rpn


def parallel_efficiency(results) -> Dict[int, float]:
    """Parallel efficiency per process count from NasRunResults.

    ``results`` is an iterable of :class:`NasRunResult` of one kernel,
    one class, one stack, across process counts.  Efficiency is
    ``t(p0) * p0 / (t(p) * p)`` with p0 the smallest count present.
    """
    by_p = {r.nprocs: r.time_seconds for r in results}
    if not by_p:
        return {}
    p0 = min(by_p)
    base = by_p[p0] * p0
    return {p: base / (t * p) for p, t in sorted(by_p.items())}


def run_kernel(kernel_name: str, cls: str, nprocs: int, stack: StackSpec,
               cluster: Optional[ClusterSpec] = None,
               ranks_per_node: Optional[int] = None,
               sim_iters: Optional[int] = None) -> NasRunResult:
    """Simulate one NAS kernel run and project the full execution time."""
    spec = KERNELS[kernel_name]
    spec.validate_procs(nprocs)
    kcls = spec.classes[cls]
    if cluster is None:
        cluster, ranks_per_node = default_nas_cluster(nprocs)
        cluster = cluster.covering(stack)
    n_sim = min(kcls.iters, sim_iters or spec.default_sim_iters)
    compute_per_iter = spec.cpu_seconds(cls) / nprocs / kcls.iters

    def program(comm):
        ctx = KernelContext(kernel=spec, cls=kcls, p=nprocs,
                            compute_per_iter=compute_per_iter)
        if spec.setup is not None:
            yield from spec.setup(comm, ctx)
        yield from comm.barrier()
        t0 = comm.sim.now
        for i in range(n_sim):
            yield from spec.iteration(comm, ctx, i)
        yield from comm.barrier()
        return (comm.sim.now - t0) * (kcls.iters / n_sim)

    result = run_mpi(program, nprocs, stack, cluster=cluster,
                     ranks_per_node=ranks_per_node)
    time_seconds = max(result.rank_results)
    return NasRunResult(kernel=kernel_name, cls=cls, nprocs=nprocs,
                        stack=stack.name, time_seconds=time_seconds,
                        simulated_iters=n_sim, total_iters=kcls.iters)
