"""Point execution: pure-data point config -> JSON-clean result.

One executor per point ``kind``.  Every executor rebuilds its stack,
cluster, and workload objects from the serialized params, runs one
workload call, and returns a plain dict of floats/ints/lists —
JSON-clean so a cache round-trip reproduces the result bit-identically
(tuples are forbidden: JSON would silently turn them into lists).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro import config


def build_stack(ref: Dict[str, Any]) -> config.StackSpec:
    """Rebuild a :class:`~repro.config.StackSpec` from a ``stack_ref``.

    The preset must be a name of :data:`repro.config.STACKS`.
    """
    kw = dict(ref.get("kw") or {})
    if "rails" in kw:
        kw["rails"] = tuple(kw["rails"])
    return config.stack(ref["preset"], **kw)


def _exec_netpipe(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workloads.netpipe import run_netpipe

    spec = build_stack(params["stack"])
    res = run_netpipe(spec, config.xeon_pair(), [params["size"]],
                      reps=params["reps"],
                      warmup=params.get("warmup", 2),
                      anysource=params.get("anysource", False),
                      intra_node=params.get("intra_node", False))
    return {"latency": res.latencies[0], "bandwidth": res.bandwidths[0]}


def _exec_overlap(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workloads.overlap import run_overlap

    spec = build_stack(params["stack"])
    res = run_overlap(spec, config.xeon_pair(), [params["size"]],
                      params["compute"], reps=params["reps"])
    return {"sending_time": res.sending_times[0]}


def _exec_nas(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workloads.nas import run_kernel
    from repro.workloads.nas.base import KERNELS

    spec = build_stack(params["stack"])
    kernel = params["kernel"]
    registered_variant = False
    if kernel == "is-contig" and kernel not in KERNELS:
        # the ext_is_datatypes contiguous-layout variant of the IS skeleton
        from repro.experiments.ext_is_datatypes import _contiguous_is

        KERNELS[kernel] = _contiguous_is()
        registered_variant = True
    sim_iters = params.get("sim_iters")
    try:
        # run to steady state unless the point forces a fixed count
        res = run_kernel(kernel, params["cls"], params["procs"], spec,
                         sim_iters=sim_iters, steady=sim_iters is None)
    finally:
        if registered_variant:
            KERNELS.pop(kernel, None)
    return {"time_seconds": res.time_seconds,
            "simulated_iters": res.simulated_iters,
            "total_iters": res.total_iters,
            "period": res.period,
            "capped": res.capped}


def _exec_stencil(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workloads.stencil import StencilConfig, run_stencil

    spec = build_stack(params["stack"])
    cfg = StencilConfig(**params["cfg"])
    res = run_stencil(spec, params["nprocs"], cfg,
                      overlap=params["overlap"])
    return {"time_seconds": res.time_seconds, "per_iter": res.per_iter}


def _exec_coll(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.workloads.collbench import run_collbench

    spec = build_stack(params["stack"])
    cluster = None
    topo = params.get("topology")
    if topo:
        from repro.hardware.netgraph import parse_topology

        cluster = config.ClusterSpec(
            n_nodes=params["nprocs"],
            topology=parse_topology(topo)).covering(spec)
    res = run_collbench(spec, params["nprocs"], params["collective"],
                        params["size"],
                        algorithm=params.get("algorithm"),
                        reps=params.get("reps", 5),
                        warmup=params.get("warmup", 2),
                        cluster=cluster)
    return {"per_op": res.per_op, "algorithm": res.algorithm,
            "elapsed": res.elapsed}


def _exec_topo_multirail(params: Dict[str, Any]) -> Dict[str, Any]:
    """Striped transfers on a two-rail cluster whose mx rail is routed.

    Rank 0 streams ``n_msgs`` payloads of ``size`` bytes to rank 1 under
    the configured split strategy; an optional ``bg`` flow injects pure
    interference frames on the routed rail so its links congest.  The
    result records how the mx split share evolved.
    """
    from repro.hardware import presets as hw
    from repro.hardware.netgraph import BackgroundTraffic, parse_topology
    from repro.runtime.builder import MPIRuntime
    from repro.simulator import Trace

    spec = build_stack(params["stack"])
    cluster = config.ClusterSpec(
        n_nodes=params["n_nodes"], rails=(hw.IB_CONNECTX, hw.MX_MYRI10G),
        topology=parse_topology(params["topology"]), topo_rails=("mx",))
    size, n_msgs = params["size"], params["n_msgs"]

    def prog(comm):
        for i in range(n_msgs):
            if comm.rank == 0:
                yield from comm.send(1, tag=i, size=size)
                yield from comm.recv(src=1, tag=1000 + i)
            else:
                yield from comm.recv(src=0, tag=i)
                yield from comm.send(0, tag=1000 + i, size=16)

    trace = Trace()
    rt = MPIRuntime(2, spec, cluster=cluster, trace=trace)
    bg = params.get("bg")
    if bg:
        BackgroundTraffic(rt.cluster.fabrics["mx"], src=bg["src"],
                          dst=bg["dst"], size=bg["size"],
                          period=bg["period"], count=bg["count"]).install()
    res = rt.run(prog)
    splits = [r.data["shares"] for r in trace.records
              if r.category == "strategy.split"]
    mx_shares = [dict(s).get("mx", 0) / sum(c for _, c in s) for s in splits]
    return {"elapsed": res.elapsed,
            "splits": len(mx_shares),
            "mx_share_first": mx_shares[0] if mx_shares else 0.0,
            "mx_share_last": mx_shares[-1] if mx_shares else 0.0,
            "mx_share_min": min(mx_shares) if mx_shares else 0.0,
            "observed_delay":
                rt.cluster.fabrics["mx"].observed_source_delay(0)}


def _exec_reg_churn(params: Dict[str, Any]) -> Dict[str, Any]:
    """Rendezvous buffer churn against the IB pin-down cache.

    Rank 0 streams rendezvous transfers to rank 1 cycling through
    ``sizes`` for ``rounds`` rounds; when the cycled working set
    exceeds the configured cache capacity the LRU keeps evicting, so
    the result exposes the cache's hit/evict behaviour (summed over
    both ranks' caches) next to the run's elapsed time.
    """
    from repro.runtime.builder import MPIRuntime

    spec = build_stack(params["stack"])
    sizes, rounds = params["sizes"], params["rounds"]

    def prog(comm):
        tag = 0
        for _ in range(rounds):
            for size in sizes:
                if comm.rank == 0:
                    yield from comm.send(1, tag=tag, size=size)
                else:
                    yield from comm.recv(src=0, tag=tag)
                tag += 1

    rt = MPIRuntime(2, spec, cluster=config.xeon_pair())
    res = rt.run(prog)
    caches = [stack.core.reg_cache for stack in rt.stacks
              if stack.core.reg_cache is not None]
    return {"elapsed": res.elapsed,
            "hits": sum(c.hits for c in caches),
            "misses": sum(c.misses for c in caches),
            "evictions": sum(c.evictions for c in caches),
            "pinned_bytes": sum(c.pinned_bytes for c in caches)}


_EXECUTORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "netpipe": _exec_netpipe,
    "overlap": _exec_overlap,
    "nas": _exec_nas,
    "stencil": _exec_stencil,
    "coll": _exec_coll,
    "topo_multirail": _exec_topo_multirail,
    "reg_churn": _exec_reg_churn,
}


def execute_point(point_config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one point (given as ``Point.config()`` data) to its result."""
    kind = point_config["kind"]
    executor = _EXECUTORS.get(kind)
    if executor is None:
        raise ValueError(f"unknown point kind {kind!r}; "
                         f"known: {', '.join(sorted(_EXECUTORS))}")
    return executor(point_config["params"])
