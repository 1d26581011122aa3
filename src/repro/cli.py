"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``netpipe``       latency/bandwidth sweep for one stack
``overlap``       the Fig. 7 isend/compute/wait measurement
``nas``           one NAS kernel run
``stacks``        list available stack presets
``trace``         run a workload fully traced; export Perfetto JSON +
                  metrics summary + per-layer latency breakdown
``profile``       sim-time span profiler: run a workload under the
                  SpanProfiler and emit a top-N table, a folded-stack
                  flame graph and an enriched Perfetto trace
``perf``          render the campaign run-telemetry trajectory
                  (points, cache hits, wall time) across runs
``check``         static determinism and contract checker: per-module
                  passes enforcing RPC001.. (no generator callbacks,
                  audited clock/RNG funnels and no host sleep, taxonomy
                  round-trip, iteration order, timestamp equality,
                  mutable defaults, bare-float CPU charges)
``race``          simulated-concurrency race detector: run a preset
                  with its shared containers watched under
                  happens-before tracking and report conflicts
``campaign``      run the paper-figure reproductions (all or by name):
                  decompose experiments into points, execute across a
                  process pool, memoize in a content-addressed cache
``topo``          routed network topologies: list presets, describe and
                  visualize a link/switch graph, or sweep one collective
                  across topologies and report per-link hot spots

Every stack flag takes a name of :data:`repro.config.STACKS`; sizes,
counts and stack names are checked by the argparse ``type`` of their
flag, so a bad value ends in a one-line usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import config


def _parse_size(text: str) -> int:
    """'4', '64K', '1M' -> bytes (argparse type: a size >= 0)."""
    digits = text.strip().upper()
    mult = 1
    if digits.endswith("K"):
        mult, digits = 1024, digits[:-1]
    elif digits.endswith("M"):
        mult, digits = 1 << 20, digits[:-1]
    if not digits.isdigit():
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}; expected an int >= 0 with an optional "
            "K or M suffix")
    return int(digits) * mult


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an int, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _sizes(text: str) -> List[int]:
    """Comma list of sizes (argparse type)."""
    return [_parse_size(item) for item in text.split(",")]


def _stack_name(name: str) -> str:
    """A preset name of :data:`repro.config.STACKS` (argparse type)."""
    if name not in config.STACKS:
        raise argparse.ArgumentTypeError(
            f"unknown stack {name!r}; "
            f"available: {', '.join(sorted(config.STACKS))}")
    return name


def _make_sink(args):
    """Build the trace sink selected by ``--sink`` (trace/profile share it).

    ``full`` retains every record in memory, ``ring`` keeps a bounded
    window (``--ring-capacity``), ``jsonl`` spills each record to disk
    (``--jsonl``).  ``--sample`` / ``--sample-entities`` attach a
    deterministic :class:`~repro.simulator.tracing.TraceSampler`.  A bad
    value ends the command with a one-line message, never a traceback.
    """
    from repro.simulator import JsonlTrace, RingTrace, Trace, TraceSampler

    strides = {}
    for item in getattr(args, "sample", None) or []:
        name, sep, n = item.partition("=")
        if not sep or not name:
            raise SystemExit(f"bad --sample {item!r}; "
                             "expected LAYER_OR_CATEGORY=N")
        try:
            strides[name] = int(n)
        except ValueError:
            raise SystemExit(f"bad --sample stride {n!r}; expected an int")
        if strides[name] < 1:
            raise SystemExit(f"bad --sample {item!r}; the stride must be >= 1")
    entities = None
    if getattr(args, "sample_entities", None):
        try:
            entities = [int(e) for e in args.sample_entities.split(",")]
        except ValueError:
            raise SystemExit(f"bad --sample-entities "
                             f"{args.sample_entities!r}; expected a comma "
                             "list of rank/node ids")
    sampler = TraceSampler(strides=strides or None, entities=entities) \
        if (strides or entities is not None) else None
    if args.sink == "ring":
        if args.ring_capacity < 1:
            raise SystemExit(f"bad --ring-capacity {args.ring_capacity}; "
                             "must be >= 1")
        return RingTrace(args.ring_capacity, sampler=sampler)
    if args.sink == "jsonl":
        try:
            return JsonlTrace(args.jsonl, sampler=sampler)
        except OSError as exc:
            raise SystemExit(f"cannot write --jsonl {args.jsonl!r}: "
                             f"{exc.strerror or exc}")
    return Trace(sampler=sampler)


def _sink_summary(trace) -> str:
    """One line describing what the sink kept/dropped."""
    from repro.simulator import JsonlTrace, RingTrace

    sampled = (f", {trace.sampled_out} sampled out"
               if trace.sampled_out else "")
    if isinstance(trace, RingTrace):
        return (f"ring sink: {len(trace)} retained of {trace.seen} admitted "
                f"(capacity {trace.capacity}, {trace.evicted} "
                f"evicted{sampled})")
    if isinstance(trace, JsonlTrace):
        return (f"jsonl sink: {trace.seen} record(s) spilled to "
                f"{trace.path}{sampled}")
    return f"full sink: {trace.seen} record(s) retained{sampled}"


def cmd_stacks(_args) -> int:
    for name in sorted(config.STACKS):
        print(f"  {name:24s} -> {config.stack(name).name}")
    return 0


def cmd_netpipe(args) -> int:
    from repro.workloads.netpipe import run_netpipe

    spec = config.stack(args.stack)
    cluster = config.xeon_pair()
    res = run_netpipe(spec, cluster, args.sizes, reps=args.reps,
                      anysource=args.anysource, intra_node=args.intra)
    print(f"# {spec.name}" + (" (intra-node)" if args.intra else ""))
    print(f"{'size':>10} {'latency_us':>12} {'MiB/s':>10}")
    for i, size in enumerate(res.sizes):
        print(f"{size:>10} {res.latencies[i] * 1e6:>12.2f} "
              f"{res.bandwidths[i]:>10.0f}")
    return 0


def cmd_overlap(args) -> int:
    from repro.workloads.overlap import run_overlap

    spec = config.stack(args.stack)
    size = args.size
    compute = float(args.compute) * 1e-6
    ref = run_overlap(spec, config.xeon_pair(), [size], 0.0, reps=args.reps)
    res = run_overlap(spec, config.xeon_pair(), [size], compute,
                      reps=args.reps)
    print(f"# {spec.name}, {size} B, compute {compute * 1e6:.0f} us")
    print(f"communication alone : {ref.at(size) * 1e6:9.1f} us")
    print(f"sending time        : {res.at(size) * 1e6:9.1f} us")
    print(f"sum / max reference : {(ref.at(size) + compute) * 1e6:9.1f} / "
          f"{max(ref.at(size), compute) * 1e6:.1f} us")
    return 0


def cmd_nas(args) -> int:
    from repro.workloads.nas import adjust_procs, run_kernel

    spec = config.stack(args.stack)
    procs = adjust_procs(args.kernel, args.procs)
    # steady state unless --sim-iters forces a fixed count
    res = run_kernel(args.kernel, args.cls, procs, spec,
                     sim_iters=args.sim_iters, steady=args.sim_iters is None)
    if res.capped:
        how = "capped"
    elif res.period:
        how = f"steady, period {res.period}"
    else:
        how = "fixed count"
    print(f"{args.kernel.upper()} class {args.cls}, {procs} processes, "
          f"{spec.name}")
    print(f"projected execution time: {res.time_seconds:.1f} s")
    print(f"{res.simulated_iters}/{res.total_iters} iterations simulated "
          f"({how})")
    return 0


def cmd_trace(args) -> int:
    from repro.observability import (attach_metrics, format_breakdown,
                                     layer_of, message_lives, write_perfetto)
    from repro.runtime import run_mpi
    from repro.simulator import JsonlTrace, load_trace_jsonl
    from repro.workloads.netpipe import pingpong

    spec = config.stack(args.stack)
    size = args.size
    trace = _make_sink(args)
    metrics = attach_metrics(trace)

    if args.workload == "netpipe":
        program = pingpong(size, reps=args.reps, warmup=0)
    else:  # overlap
        from repro.workloads.overlap import overlap_program
        program = overlap_program(size, compute=400e-6, reps=args.reps,
                                  warmup=0)

    try:
        result = run_mpi(program, 2, spec, cluster=config.xeon_pair(),
                         trace=trace)
    finally:
        if isinstance(trace, JsonlTrace):
            trace.close()
    sink_line = _sink_summary(trace)
    partial = ""
    if isinstance(trace, JsonlTrace):
        # round-trip through the spill file: the reloaded trace is the
        # full record stream, so breakdown/export work as with a full sink
        trace = load_trace_jsonl(trace.path)
    elif args.sink == "ring" and trace.evicted:
        partial = (f" (ring window: oldest {trace.evicted} record(s) "
                   "evicted, breakdown is partial)")
    write_perfetto(trace, args.out)

    layers = sorted({layer_of(c) for c in trace.categories_seen()})
    print(f"# {spec.name}, {args.workload}, {size} B "
          f"(done at {result.elapsed * 1e6:.1f} us)")
    print(f"{len(trace)} trace records across layers: {', '.join(layers)}")
    print(sink_line)
    print(f"Perfetto trace written to {args.out} "
          f"(open at https://ui.perfetto.dev)")
    print()
    print(f"== per-layer latency breakdown =={partial}")
    print(format_breakdown(message_lives(trace)))
    print()
    print("== metrics ==")
    print(metrics.format_summary())
    return 0


def cmd_profile(args) -> int:
    from repro.observability import (SpanProfiler, attach_metrics,
                                     format_engine_stats,
                                     record_engine_metrics, write_perfetto)
    from repro.runtime.builder import MPIRuntime
    from repro.simulator import JsonlTrace

    spec = config.stack(args.stack)
    size = args.size

    if args.workload == "pingpong":
        from repro.workloads.netpipe import pingpong
        nprocs, cluster = 2, config.xeon_pair()
        program = pingpong(size, reps=args.reps, warmup=0)
    elif args.workload == "overlap":
        from repro.workloads.overlap import overlap_program
        nprocs, cluster = 2, config.xeon_pair()
        program = overlap_program(size, compute=400e-6, reps=args.reps,
                                  warmup=0)
    else:  # collbench
        from repro.workloads.collbench import BENCHABLE, collbench
        if args.coll not in BENCHABLE:
            raise SystemExit(f"unknown collective {args.coll!r}; "
                             f"benchable: {', '.join(BENCHABLE)}")
        nprocs, cluster = args.np, None   # one rank per node by default
        program = collbench(args.coll, size, reps=args.reps, warmup=1)

    trace = _make_sink(args)
    metrics = attach_metrics(trace)
    prof = SpanProfiler().attach(trace)
    try:
        runtime = MPIRuntime(nprocs, spec, cluster=cluster, trace=trace)
        result = runtime.run(program)
    finally:
        if isinstance(trace, JsonlTrace):
            trace.close()
    prof.finalize(runtime.sim.now)
    stats = record_engine_metrics(runtime.sim, metrics.registry)

    folded_path = prof.write_folded(args.folded)
    write_perfetto(trace, args.perfetto, spans=prof.all_spans())

    workload = args.workload if args.workload != "collbench" \
        else f"collbench/{args.coll} p={nprocs}"
    print(f"# {spec.name}, {workload}, {size} B "
          f"(done at {result.elapsed * 1e6:.1f} us)")
    print(_sink_summary(trace))
    print()
    print(prof.report(args.top))
    print()
    print("== engine ==")
    print(format_engine_stats(stats))
    print()
    print(f"folded flame graph written to {folded_path} "
          "(flamegraph.pl / speedscope)")
    print(f"Perfetto trace with spans written to {args.perfetto} "
          "(open at https://ui.perfetto.dev)")
    return 0


def cmd_perf(args) -> int:
    import json
    import os

    telemetry_path = os.path.join(args.cache_dir, "telemetry.jsonl")
    campaign_runs = []
    if os.path.exists(telemetry_path):
        with open(telemetry_path) as fh:
            for line in fh:
                try:
                    campaign_runs.append(json.loads(line))
                except ValueError:
                    continue   # a blank or torn tail line
    if not campaign_runs:
        print(f"no perf telemetry found ({telemetry_path} is absent or "
              "empty); run a cached `repro campaign` first")
        return 1

    runs = campaign_runs[-args.last:]
    print(f"== campaign telemetry ({len(runs)} of {len(campaign_runs)} "
          f"run(s), {telemetry_path}) ==")
    print(f"{'run':>4} {'points':>7} {'hits':>6} {'misses':>7} "
          f"{'wall_s':>8} {'executed_s':>11} {'workers':>8}")
    for i, run in enumerate(runs, len(campaign_runs) - len(runs) + 1):
        print(f"{i:>4} {run.get('points', 0):>7} "
              f"{run.get('cache_hits', 0):>6} "
              f"{run.get('cache_misses', 0):>7} "
              f"{run.get('wall_seconds', 0.0):>8.2f} "
              f"{run.get('executed_seconds', 0.0):>11.2f} "
              f"{run.get('workers', 1):>8}")
    return 0


def cmd_check(args) -> int:
    import os

    from repro.analysis.reporting import load_baseline, render
    from repro.analysis.static import (check_package, contract_catalog,
                                       default_target, run_check,
                                       save_baseline)

    if args.list_contracts:
        for code, summary in contract_catalog():
            print(f"  {code}  {summary}")
        return 0
    root = args.root or default_target()
    if args.update_baseline:
        found = check_package(root)
        save_baseline(args.update_baseline, found)
        print(f"baseline of {len(found)} finding(s) written "
              f"to {args.update_baseline}")
        return 0
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(".repro-check-baseline.json"):
        baseline_path = ".repro-check-baseline.json"
    baseline = load_baseline(baseline_path) if baseline_path else None
    result = run_check(root, baseline=baseline)
    if args.format == "text" and args.output is None:
        for violation in result.violations:
            print(violation.format())
    else:
        document = render(result.violations, args.format, "repro-check",
                          contract_catalog())
        if args.output is None:
            print(document)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")
            print(f"{args.format} report ({len(result.violations)} "
                  f"finding(s)) written to {args.output}")
    status = "clean" if result.clean else \
        f"{len(result.violations)} violation(s)"
    suppressed = f", {len(result.baselined)} baselined" if result.baselined \
        else ""
    print(f"repro check: {result.files} module(s), {status}{suppressed}")
    return 0 if result.clean else 1


def cmd_race(args) -> int:
    from repro.analysis.race import run_race, run_racy_demo

    if args.demo_racy:
        report = run_racy_demo(seed=args.seed)
        print(report.format_text())
        return 1 if report.races else 0
    spec = config.stack(args.preset)
    cluster = None
    if args.topo:
        from repro.hardware import presets as hw
        from repro.hardware.netgraph import parse_topology

        topo = parse_topology(args.topo)
        if topo is None:
            raise SystemExit(f"--topo {args.topo!r} is the flat fabric; "
                             "pass e.g. torus2d:2x2 or omit the flag")
        cluster = config.ClusterSpec(
            n_nodes=topo.capacity, node=hw.XEON_NODE,
            rails=(hw.IB_CONNECTX, hw.MX_MYRI10G), topology=topo)
    report = run_race(spec, size=args.size, reps=args.reps,
                      seed=args.seed, cluster=cluster)
    print(report.format_text())
    return 1 if report.races else 0


def cmd_topo(args) -> int:
    from repro.hardware import presets as hw
    from repro.hardware.netgraph import PRESETS, NetGraph, parse_topology

    rail = {"ib": hw.IB_CONNECTX, "mx": hw.MX_MYRI10G}[args.rail]
    if args.action == "list":
        for name in sorted(PRESETS):
            d = NetGraph(PRESETS[name], rail).describe()
            print(f"{name:<12} {d['nodes']:>3} nodes, "
                  f"{d['switches']:>2} switches, {d['links']:>3} links, "
                  f"diameter {d['diameter_hops']} hop(s), "
                  f"mean {d['mean_hops']:.2f}")
        return 0
    if not args.topology:
        raise SystemExit(f"topo {args.action} needs a topology argument "
                         "(e.g. torus2d:4x4; `repro topo list` for presets)")
    if args.action == "describe":
        spec = parse_topology(args.topology)
        if spec is None:
            raise SystemExit("the flat fabric has no graph to describe")
        graph = NetGraph(spec, rail)
        for key, value in graph.describe().items():
            print(f"{key:<16} {value}")
        art = graph.ascii_art()
        if art:
            print()
            print(art)
        return 0
    # sweep: one collective cell per topology, with link hot spots
    from repro.observability.metrics import attach_metrics
    from repro.simulator import Trace
    from repro.workloads.collbench import run_collbench

    spec_stack = config.stack(args.stack)
    size = args.size
    for text in args.topology.split(","):
        topo = parse_topology(text)
        cluster = None
        if topo is not None:
            if topo.capacity < args.nprocs:
                raise SystemExit(f"{topo.name} holds {topo.capacity} "
                                 f"node(s) < --nprocs {args.nprocs}")
            cluster = config.ClusterSpec(
                n_nodes=args.nprocs, topology=topo).covering(spec_stack)
        trace = Trace()
        metrics = attach_metrics(trace)
        res = run_collbench(spec_stack, args.nprocs, args.coll, size,
                            algorithm=args.algo, reps=args.reps,
                            cluster=cluster, trace=trace)
        label = topo.name if topo is not None else "flat"
        print(f"{label:<14} {args.coll}/{res.algorithm} p={args.nprocs} "
              f"{size} B: {res.per_op * 1e6:.1f} us/op")
        for link, row in metrics.hottest_links(args.links).items():
            print(f"    {link:<20} busy {row['busy_time'] * 1e6:8.1f} us  "
                  f"queued {row['queue_delay'] * 1e6:8.1f} us  "
                  f"max depth {int(row['max_depth'])}")
    return 0


def cmd_campaign(args) -> int:
    import importlib
    import json

    from repro.campaign import ResultCache, run_campaign
    from repro.experiments import MODULES

    names = args.names or None
    for name in args.names:
        if name not in MODULES:
            raise SystemExit(f"unknown experiment module {name!r}; "
                             f"available: {', '.join(MODULES)}")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_campaign(modules=names, fast=args.fast,
                          workers=args.workers, cache=cache,
                          force=args.force)
    if not args.quiet:
        for name, data in report.modules.items():
            importlib.import_module(f"repro.experiments.{name}").render(data)
            print()
    print(report.format_summary())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"campaign report written to {args.report}")
    return 0


def _add_sink_options(p: argparse.ArgumentParser) -> None:
    """The shared trace-sink/sampling option block (trace + profile)."""
    p.add_argument("--sink", default="full",
                   choices=["full", "ring", "jsonl"],
                   help="trace sink: full in-memory log, bounded ring "
                        "buffer, or JSONL spill-to-disk")
    p.add_argument("--ring-capacity", type=int, default=4096,
                   help="retained records for --sink ring")
    p.add_argument("--jsonl", default="trace_records.jsonl",
                   help="spill path for --sink jsonl")
    p.add_argument("--sample", action="append", metavar="LAYER_OR_CAT=N",
                   help="admit every Nth record of a category or layer "
                        "(repeatable; begin/end pairs are never sampled)")
    p.add_argument("--sample-entities", default=None, metavar="IDS",
                   help="comma list of rank/node ids to record "
                        "(others dropped)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NewMadeleine-in-MPICH2 reproduction (IPDPS 2009)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stacks", help="list stack presets")
    p.set_defaults(fn=cmd_stacks)

    p = sub.add_parser("netpipe", help="latency/bandwidth sweep")
    p.add_argument("--stack", type=_stack_name, default="mpich2_nmad")
    p.add_argument("--sizes", type=_sizes, default="4,1K,64K,1M",
                   help="comma list, K/M suffixes allowed")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--anysource", action="store_true")
    p.add_argument("--intra", action="store_true",
                   help="both ranks on one node (shared memory)")
    p.set_defaults(fn=cmd_netpipe)

    p = sub.add_parser("overlap", help="isend/compute/wait measurement")
    p.add_argument("--stack", type=_stack_name, default="mpich2_nmad_pioman")
    p.add_argument("--size", type=_parse_size, default="256K")
    p.add_argument("--compute", default="400", help="microseconds")
    p.add_argument("--reps", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_overlap)

    p = sub.add_parser("nas", help="run one NAS kernel")
    p.add_argument("--kernel", default="cg",
                   choices=["bt", "cg", "ep", "ft", "sp", "mg", "lu", "is"])
    p.add_argument("--cls", default="A", choices=["A", "B", "C"])
    p.add_argument("--procs", type=_positive_int, default=8)
    p.add_argument("--stack", type=_stack_name, default="mpich2_nmad")
    p.add_argument("--sim-iters", type=_positive_int, default=None,
                   help="simulate exactly N iterations (default: until "
                        "the iteration times repeat)")
    p.set_defaults(fn=cmd_nas)

    p = sub.add_parser("trace", help="trace a workload; export Perfetto "
                                     "JSON + metrics + latency breakdown")
    p.add_argument("--stack", type=_stack_name, default="mpich2_nmad_pioman")
    p.add_argument("--workload", default="netpipe",
                   choices=["netpipe", "overlap"])
    p.add_argument("--size", type=_parse_size, default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--out", default="trace.json",
                   help="Perfetto JSON output path")
    _add_sink_options(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("profile", help="sim-time span profiler: top-N "
                                       "table, folded flame graph, "
                                       "Perfetto spans")
    p.add_argument("stack", nargs="?", type=_stack_name,
                   default="mpich2_nmad",
                   help="stack preset (see `repro stacks`)")
    p.add_argument("workload", nargs="?", default="pingpong",
                   choices=["pingpong", "overlap", "collbench"])
    p.add_argument("--size", type=_parse_size, default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--np", type=_positive_int, default=8,
                   help="process count (collbench only)")
    p.add_argument("--coll", default="allreduce",
                   help="collective to profile (collbench only)")
    p.add_argument("--top", type=_positive_int, default=15,
                   help="rows in the top-span table")
    p.add_argument("--folded", default="profile.folded",
                   help="folded-stack flame graph output path")
    p.add_argument("--perfetto", default="profile.json",
                   help="Perfetto JSON (with span slices) output path")
    _add_sink_options(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("perf", help="render the campaign run-telemetry "
                                    "trajectory")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="campaign cache dir (telemetry.jsonl lives beside "
                        "the store)")
    p.add_argument("--last", type=_positive_int, default=10,
                   help="show at most the last N (>= 1) campaign runs")
    p.set_defaults(fn=cmd_perf)

    p = sub.add_parser("check", help="static determinism and contract "
                                     "checker (per-module passes)")
    p.add_argument("root", nargs="?", default=None,
                   help="package directory to analyze (default: the "
                        "installed repro package)")
    p.add_argument("--baseline", default=None,
                   help="baseline JSON (default: .repro-check-baseline.json "
                        "in the cwd when present)")
    p.add_argument("--update-baseline", metavar="PATH", default=None,
                   help="write current findings as the new baseline and exit")
    p.add_argument("--list-contracts", action="store_true",
                   help="print the contract catalog and exit")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="findings output format")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the findings report to a file instead of "
                        "stdout")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("race", help="happens-before race detector run")
    p.add_argument("--preset", "--stack", dest="preset", type=_stack_name,
                   default="mpich2_nmad_pioman",
                   help="stack preset to run under the detector")
    p.add_argument("--size", type=_parse_size, default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demo-racy", action="store_true",
                   help="run the deliberately racy scenario instead "
                        "(must report a race; exercises the detector)")
    p.add_argument("--topo", default=None,
                   help="run on a routed topology (e.g. torus2d:2x2) so "
                        "link traversal is under the detector too")
    p.set_defaults(fn=cmd_race)

    p = sub.add_parser("topo", help="routed network topologies: describe/"
                                    "visualize a graph, sweep a collective "
                                    "across topologies with link hot spots")
    p.add_argument("action", choices=["list", "describe", "sweep"])
    p.add_argument("topology", nargs="?", default=None,
                   help="topology string, e.g. torus2d:4x4 or fattree:4 "
                        "(sweep takes a comma list; 'flat' allowed)")
    p.add_argument("--rail", choices=["ib", "mx"], default="ib",
                   help="NIC parameters the links inherit")
    p.add_argument("--stack", type=_stack_name, default="mpich2_nmad")
    p.add_argument("--coll", default="allreduce")
    p.add_argument("--algo", default=None,
                   help="force one algorithm (default: selection table)")
    p.add_argument("--nprocs", type=_positive_int, default=8)
    p.add_argument("--size", type=_parse_size, default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=_positive_int, default=2)
    p.add_argument("--links", type=_positive_int, default=5,
                   help="hottest links to print per topology")
    p.set_defaults(fn=cmd_topo)

    p = sub.add_parser("campaign", help="parallel, cached experiment "
                                        "campaign over the paper figures")
    p.add_argument("names", nargs="*",
                   help="experiment modules (default: every module)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process-pool width (1 = in-process)")
    p.add_argument("--fast", action="store_true", help="reduced sweeps")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache entirely")
    p.add_argument("--force", action="store_true",
                   help="recompute every point even on a cache hit")
    p.add_argument("--quiet", action="store_true",
                   help="only print the campaign summary, not the tables")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write merged results + stats as JSON to PATH")
    p.set_defaults(fn=cmd_campaign)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped to `head`): exit quietly, and
        # hand the interpreter a dead-end stdout so its shutdown-time
        # flush cannot raise again
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
