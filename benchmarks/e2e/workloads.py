"""The six workloads: inputs from a seed, one rep, and its output checks.

Closed loop, one client: a rep starts when the previous one has returned.
A workload's ``make_inputs`` is the only code that sees the seed; the
program under test receives sizes, tags, cell orders and runtime seeds,
never the seed's meaning.  ``rep`` runs one repetition inside
``m.timed()`` and returns ``(outputs, checks)``: ``outputs`` is plain
data that must repeat bit for bit, ``checks`` a list of ``(name, ok)``.

``repro`` is imported inside the functions so that a workload's set-up
time pays only for the modules that workload needs.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: the only directory the benchmark writes to (git-ignored)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

Checks = List[Tuple[str, bool]]
KiB, MiB = 1024, 1024 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    #: timed reps of one run at the nominal ``--seconds`` (BENCHMARK.json's
    #: ``run_seconds``); fixed, never time-budgeted, so that two commits do
    #: the same work
    reps: int
    #: what one ``op`` is, and how many a rep performs
    op: str
    ops: int
    make_inputs: Callable[[random.Random], Any]
    rep: Callable[[Any, Any], Tuple[Any, Checks]]
    #: one untimed warm-up rep is part of set-up (and the reference the
    #: timed reps' outputs are compared with)
    warmup: bool = True
    #: every job runs under ``RingTrace(1024)`` + ``attach_metrics``
    ring_traced: bool = False
    #: pass B of the traced run (in-program ``Trace`` + ``SpanProfiler``)
    pass_b: bool = True


# ---------------------------------------------------------------------------
# pingpong_eager / pingpong_ring_traced
# ---------------------------------------------------------------------------
# Why: the per-message software path.  Four 2-rank jobs of 202 round trips
# at sizes below the 16 KiB eager threshold keep the event queue 2-5 deep
# with unique timestamps, so host time is simulator dispatch + nmad + ch3 +
# mpi and almost no hardware, collectives or PIOMan.  This is the workload
# on which "fewer events per message" must show.  The ring-traced twin runs
# the same program and seed with a bounded trace sink and live metrics: the
# same layers used differently, where a fast-path gain paid for on the
# traced path shows, and where the tracing-overhead budget is claimed.

PINGPONG_SIZES = (4, 64, 256, 512)
PINGPONG_REPS, PINGPONG_WARMUP = 200, 2


def _pingpong_inputs(rng: random.Random) -> Dict[str, Any]:
    sizes = list(PINGPONG_SIZES)
    rng.shuffle(sizes)
    return {"jobs": [{"size": size, "tag": rng.randrange(1 << 20),
                      "seed": rng.randrange(1 << 31)} for size in sizes]}


def _pingpong_program(size: int, tag: int):
    """Netpipe's ping-pong with harness-drawn tags; rank 0 returns the
    one-way time of the measured round trips."""
    def program(comm):
        peer = 1 - comm.rank
        t0 = 0.0
        for i in range(PINGPONG_WARMUP + PINGPONG_REPS):
            if i == PINGPONG_WARMUP:
                t0 = comm.sim.now
            if comm.rank == 0:
                yield from comm.send(peer, tag=(tag, i), size=size)
                yield from comm.recv(src=peer, tag=(tag, i))
            else:
                yield from comm.recv(src=peer, tag=(tag, i))
                yield from comm.send(peer, tag=(tag, i), size=size)
        return (comm.sim.now - t0) / (2 * PINGPONG_REPS)

    return program


def _pingpong_rep(inputs, m):
    from repro import config
    from repro.runtime import MPIRuntime

    one_way = {}
    with m.timed():
        for job in inputs["jobs"]:
            rt = MPIRuntime(2, config.mpich2_nmad(),
                            cluster=config.xeon_pair(), seed=job["seed"])
            result = rt.run(_pingpong_program(job["size"], job["tag"]))
            one_way[str(job["size"])] = result.result(0)
    checks = [("one_way_times_positive",
               all(t > 0.0 for t in one_way.values()))]
    return one_way, checks


_PINGPONG_OPS = len(PINGPONG_SIZES) * 2 * (PINGPONG_WARMUP + PINGPONG_REPS)


# ---------------------------------------------------------------------------
# rdv_multirail_pioman
# ---------------------------------------------------------------------------
# Why: the layers the ping-pongs leave idle.  Sizes above the eager
# threshold take the rendezvous handshake, split_balance stripes them over
# two rails, and PIOMan ltasks on Marcel cores progress them during the
# compute phase.  Eager-path work must not cost this workload.

RDV_SIZES = (64 * KiB, 1 * MiB, 8 * MiB)
RDV_ROUND_TRIPS, RDV_OVERLAP_ROUNDS, RDV_COMPUTE = 100, 50, 200e-6


def _rdv_inputs(rng: random.Random) -> Dict[str, Any]:
    return {"tag": rng.randrange(1 << 20), "seed": rng.randrange(1 << 31)}


def _rdv_program(tag: int):
    """Per size: ping-pong round trips, then isend/compute/wait rounds.
    Rank 0 returns ``[(one-way time, mean overlapped sending time)]``."""
    def program(comm):
        peer = 1 - comm.rank
        out = []
        for size in RDV_SIZES:
            t0 = comm.sim.now
            for i in range(RDV_ROUND_TRIPS):
                if comm.rank == 0:
                    yield from comm.send(peer, tag=(tag, "p", size, i),
                                         size=size)
                    yield from comm.recv(src=peer, tag=(tag, "p", size, i))
                else:
                    yield from comm.recv(src=peer, tag=(tag, "p", size, i))
                    yield from comm.send(peer, tag=(tag, "p", size, i),
                                         size=size)
            one_way = (comm.sim.now - t0) / (2 * RDV_ROUND_TRIPS)
            total = 0.0
            for i in range(RDV_OVERLAP_ROUNDS):
                if comm.rank == 0:
                    t1 = comm.sim.now
                    req = yield from comm.isend(peer, tag=(tag, "o", size, i),
                                                size=size)
                    yield from comm.compute(RDV_COMPUTE)
                    yield from comm.wait(req)
                    total += comm.sim.now - t1
                    yield from comm.recv(src=peer, tag=(tag, "a", size, i))
                else:
                    yield from comm.recv(src=peer, tag=(tag, "o", size, i))
                    yield from comm.send(peer, tag=(tag, "a", size, i),
                                         size=4)
            out.append((one_way, total / RDV_OVERLAP_ROUNDS))
        return out

    return program


def _rdv_rep(inputs, m):
    from repro import config
    from repro.runtime import MPIRuntime

    with m.timed():
        # the reference engine is pinned: the benchmark measures defaults,
        # and this workload exists for PIOMan's ltasks specifically
        stack = config.mpich2_nmad_pioman(rails=("ib", "mx"),
                                          progress="pioman")
        rt = MPIRuntime(2, stack, cluster=config.xeon_pair(),
                        seed=inputs["seed"])
        result = rt.run(_rdv_program(inputs["tag"]))
    times = result.result(0)
    rail_bytes = {rail: nic.tx_bytes
                  for rail, nic in sorted(rt.cluster.node(0).nics.items())}
    checks = [("both_rails_carried_bytes",
               all(rail_bytes.get(rail, 0) > 0 for rail in ("ib", "mx")))]
    for size, (one_way, overlapped) in zip(RDV_SIZES, times):
        checks.append((f"overlap_hides_compute_{size}",
                       overlapped < one_way + RDV_COMPUTE))
    return {"times": [list(t) for t in times],
            "rail_bytes": rail_bytes}, checks


_RDV_OPS = len(RDV_SIZES) * (2 * RDV_ROUND_TRIPS + 2 * RDV_OVERLAP_ROUNDS)


# ---------------------------------------------------------------------------
# nas_lu_p16
# ---------------------------------------------------------------------------
# Why: the heaviest cell of the fast campaign.  16 ranks on 8 nodes x 2
# (shared memory + network), a wavefront of small messages and deep
# blocking-wait loops: mpich2's share of host time peaks here.

def _lu_rep(inputs, m):
    from repro import config
    from repro.workloads.nas import KERNELS, default_nas_cluster, run_kernel

    with m.timed():
        cluster, ranks_per_node = default_nas_cluster(16)
        with m.probe.span("run_kernel"):
            result = run_kernel("lu", "A", 16, config.mpich2_nmad(),
                                cluster=cluster,
                                ranks_per_node=ranks_per_node)
    checks = [
        ("simulated_iters",
         result.simulated_iters == KERNELS["lu"].default_sim_iters
         == _LU_OPS),
        ("time_finite_positive",
         math.isfinite(result.time_seconds) and result.time_seconds > 0.0),
    ]
    return {"time_seconds": result.time_seconds,
            "simulated_iters": result.simulated_iters}, checks


#: LU's ``default_sim_iters`` (the campaign's fig8 points run the same)
_LU_OPS = 8


# ---------------------------------------------------------------------------
# coll_torus_p16
# ---------------------------------------------------------------------------
# Why: same-timestamp fan-out and a deep event queue (the calendar queue's
# case, which the ping-pongs bypass) plus per-link FIFO routing on a torus:
# the only workload where `coll` and `hardware.link_*` are non-zero.  It
# decides the heap-versus-calendar question.

COLL_CELLS = (("allreduce", 8), ("allreduce", 64 * KiB),
              ("alltoall", 4 * KiB), ("bcast", 256 * KiB),
              ("allgather", 16 * KiB))
COLL_REPS, COLL_WARMUP = 5, 2


def _coll_inputs(rng: random.Random) -> Dict[str, Any]:
    cells = [list(cell) for cell in COLL_CELLS]
    rng.shuffle(cells)
    return {"cells": cells,
            "seeds": [rng.randrange(1 << 31) for _ in cells]}


def _coll_rep(inputs, m):
    from repro import config
    from repro.config import ClusterSpec
    from repro.hardware.netgraph import PRESETS
    from repro.workloads.collbench import run_collbench

    cells = {}
    with m.timed():
        cluster = ClusterSpec(n_nodes=16, topology=PRESETS["torus4x4"])
        for (collective, size), seed in zip(inputs["cells"],
                                            inputs["seeds"]):
            with m.probe.span("run_collbench"):
                r = run_collbench(config.mpich2_nmad(), 16, collective, size,
                                  reps=COLL_REPS, warmup=COLL_WARMUP,
                                  cluster=cluster, seed=seed)
            cells[f"{collective}/{size}"] = {"algorithm": r.algorithm,
                                             "per_op": r.per_op}
    checks = [("per_op_positive",
               all(c["per_op"] > 0.0 for c in cells.values())),
              ("algorithm_recorded",
               all(c["algorithm"] for c in cells.values()))]
    return cells, checks


_COLL_OPS = len(COLL_CELLS) * (COLL_REPS + COLL_WARMUP)


# ---------------------------------------------------------------------------
# campaign_fast_cold
# ---------------------------------------------------------------------------
# Why: what a user actually waits for.  A cold `repro campaign --fast` on an
# empty cache (fig8 NAS is about 80 % of it) is the only workload that runs
# `comparators`, `experiments` and `campaign`, and the cold (write) beside
# the warm (read) use of the result cache.  No warm-up rep: users pay the
# lazy imports on every cold run.

CAMPAIGN_POINTS, CAMPAIGN_WARM_RERUNS = 276, 20
#: per-layer metrics only this workload's reps report (0 elsewhere)
CAMPAIGN_METRICS = ("campaign.points", "campaign.executed_s",
                    "campaign.overhead_s", "campaign.nas_share",
                    "campaign.warm_rerun_s_p50", "campaign.warm_hit_ratio")


def _campaign_rep(inputs, m):
    from repro.campaign import ResultCache, canonical_json, run_campaign

    def digest(report) -> str:
        text = canonical_json(report.to_dict()["modules"])
        return hashlib.sha256(text.encode()).hexdigest()

    os.makedirs(OUT_DIR, exist_ok=True)
    # never the repo's .repro-cache/: a fresh directory per rep, removed
    cache_dir = tempfile.mkdtemp(prefix="cache_", dir=OUT_DIR)
    try:
        with m.timed():
            with m.probe.span("ResultCache"):
                cache = ResultCache(cache_dir)
            with m.probe.span("run_campaign"):
                cold = run_campaign(fast=True, workers=1, cache=cache)
        cold_digest = digest(cold)
        executed = {name: row["executed_seconds"]
                    for name, row in cold.per_module.items()}
        warm_s, warm_hits, warm_same = [], 0, 0
        for _ in range(CAMPAIGN_WARM_RERUNS):
            t0 = time.perf_counter()
            warm = run_campaign(fast=True, workers=1,
                                cache=ResultCache(cache_dir))
            warm_s.append(time.perf_counter() - t0)
            warm_hits += warm.cache_hits
            warm_same += digest(warm) == cold_digest
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    total_executed = sum(executed.values())
    m.extra = {
        "campaign.points": cold.points,
        "campaign.executed_s": total_executed,
        # wall - sum of point seconds: planning, keying, cache.put, merge
        "campaign.overhead_s": m.wall - total_executed,
        "campaign.nas_share": executed.get("fig8_nas", 0.0) / total_executed,
        "campaign.warm_rerun_s_p50": statistics.median(warm_s),
        "campaign.warm_hit_ratio":
            warm_hits / (CAMPAIGN_WARM_RERUNS * CAMPAIGN_POINTS),
    }
    checks = [
        ("points", cold.points == CAMPAIGN_POINTS),
        ("cold_all_misses", cold.cache_misses == CAMPAIGN_POINTS),
        ("warm_all_hits",
         warm_hits == CAMPAIGN_WARM_RERUNS * CAMPAIGN_POINTS),
        ("warm_modules_identical", warm_same == CAMPAIGN_WARM_RERUNS),
    ]
    return {"points": cold.points, "modules_sha256": cold_digest}, checks


def _no_inputs(rng: random.Random) -> Dict[str, Any]:
    return {}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("pingpong_eager", reps=36, op="MPI message",
             ops=_PINGPONG_OPS, make_inputs=_pingpong_inputs,
             rep=_pingpong_rep),
    Workload("pingpong_ring_traced", reps=26, op="MPI message",
             ops=_PINGPONG_OPS, make_inputs=_pingpong_inputs,
             rep=_pingpong_rep, ring_traced=True),
    Workload("rdv_multirail_pioman", reps=32, op="MPI message",
             ops=_RDV_OPS, make_inputs=_rdv_inputs, rep=_rdv_rep),
    Workload("nas_lu_p16", reps=14, op="simulated LU iteration",
             ops=_LU_OPS, make_inputs=_no_inputs, rep=_lu_rep),
    Workload("coll_torus_p16", reps=9, op="collective call",
             ops=_COLL_OPS, make_inputs=_coll_inputs, rep=_coll_rep),
    Workload("campaign_fast_cold", reps=2, op="campaign point",
             ops=CAMPAIGN_POINTS, make_inputs=_no_inputs,
             rep=_campaign_rep, warmup=False, pass_b=False),
)}
