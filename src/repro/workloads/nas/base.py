"""Kernel registry, process-grid helpers, and the NAS runner."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.config import ClusterSpec, StackSpec, grid5000
from repro.runtime import MPIRuntime


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
    #: steady runs: the repeat period the stop was judged on (0 otherwise)
    period: int = 0
    #: steady runs: True when the times never repeated within the cap
    capped: bool = False


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


class SteadyBoard:
    """Host-side record of each rank's iteration times in a steady run.

    After every iteration a rank posts its delta (simulated seconds since
    its previous iteration boundary).  Posting schedules no simulated
    event and no synchronisation, so it cannot move simulated time.  The
    board is done at the first iteration count ``k`` at which every
    rank's last ``2 * P`` deltas repeat for some period ``P`` in
    ``PERIODS`` (relative tolerance ``RTOL``).  A count of ranks per
    iteration count keeps each post O(1).
    """

    PERIODS = (1, 2)
    RTOL = 1e-9

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.deltas = [[] for _ in range(nprocs)]
        self.k: Optional[int] = None   # iterations judged; None until done
        self._periodic: Dict[int, int] = {}   # count k -> ranks periodic at k

    @property
    def done(self) -> bool:
        return self.k is not None

    def period_at(self, rank: int, k: int) -> int:
        """Smallest P whose last 2P deltas before ``k`` repeat, else 0."""
        d = self.deltas[rank]
        for p in self.PERIODS:
            if k >= 2 * p and all(
                    math.isclose(d[j], d[j - p], rel_tol=self.RTOL)
                    for j in range(k - p, k)):
                return p
        return 0

    def post(self, rank: int, delta: float) -> bool:
        """Record one delta of ``rank``; True once the board is done."""
        if self.k is None:
            d = self.deltas[rank]
            d.append(delta)
            k = len(d)
            if self.period_at(rank, k):
                count = self._periodic.get(k, 0) + 1
                self._periodic[k] = count
                if count == self.nprocs:
                    self.k = k
        return self.k is not None

    def projection(self, iters: int) -> Tuple[float, int]:
        """(projected run time, largest period) once the board is done.

        Each rank's total is its first ``k`` deltas plus the remaining
        ``iters - k`` iterations at its period's mean; the run time is
        the largest total.
        """
        k = self.k
        longest, period = 0.0, 0
        for rank, d in enumerate(self.deltas):
            p = self.period_at(rank, k)
            total = sum(d[:k]) + (iters - k) * (sum(d[k - p:k]) / p)
            longest = max(longest, total)
            period = max(period, p)
        return longest, period


def run_kernel(kernel_name: str, cls: str, nprocs: int, stack: StackSpec,
               cluster: Optional[ClusterSpec] = None,
               ranks_per_node: Optional[int] = None,
               sim_iters: Optional[int] = None,
               steady: bool = False) -> NasRunResult:
    """Simulate one NAS kernel run and project the full execution time.

    The run simulates ``min(iters, sim_iters or default_sim_iters)``
    iterations, ends them with a barrier and scales the elapsed time
    linearly.  With ``steady=True`` that count is only the cap: ranks
    post their iteration times to a :class:`SteadyBoard`, each rank
    returns at its first iteration boundary after the board is done, and
    the board projects the total.  Ranks left blocked on peers that
    returned are abandoned, and the partial iterations are discarded.  A
    steady run that reaches the cap ends exactly like the fixed count.
    """
    spec = KERNELS[kernel_name]
    spec.validate_procs(nprocs)
    kcls = spec.classes[cls]
    if cluster is None:
        cluster, ranks_per_node = default_nas_cluster(nprocs)
        cluster = cluster.covering(stack)
    n_sim = min(kcls.iters, sim_iters or spec.default_sim_iters)
    compute_per_iter = spec.cpu_seconds(cls) / nprocs / kcls.iters
    board = SteadyBoard(nprocs) if steady else None

    def program(comm):
        ctx = KernelContext(kernel=spec, cls=kcls, p=nprocs,
                            compute_per_iter=compute_per_iter)
        if spec.setup is not None:
            yield from spec.setup(comm, ctx)
        yield from comm.barrier()
        t0 = comm.sim.now
        if board is None:
            for i in range(n_sim):
                yield from spec.iteration(comm, ctx, i)
        else:
            t = t0
            for i in range(n_sim - 1):
                yield from spec.iteration(comm, ctx, i)
                now = comm.sim.now
                if board.post(comm.rank, now - t):
                    return None
                t = now
            # the cap's last iteration is not posted: the run ends as
            # the fixed count does
            yield from spec.iteration(comm, ctx, n_sim - 1)
        yield from comm.barrier()
        return (comm.sim.now - t0) * (kcls.iters / n_sim)

    runtime = MPIRuntime(nprocs, stack, cluster=cluster,
                         ranks_per_node=ranks_per_node)
    result = runtime.run(program,
                         halted=None if board is None else lambda: board.done)
    period = 0
    if board is not None and board.done:
        time_seconds, period = board.projection(kcls.iters)
        n_sim = board.k
    else:
        time_seconds = max(result.rank_results)
    return NasRunResult(kernel=kernel_name, cls=cls, nprocs=nprocs,
                        stack=stack.name, time_seconds=time_seconds,
                        simulated_iters=n_sim, total_iters=kcls.iters,
                        period=period,
                        capped=board is not None and not board.done)
