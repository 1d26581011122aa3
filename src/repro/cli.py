"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments``   run paper-figure reproductions (all or by name)
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
``faults``        chaos run: a streaming workload under a named fault
                  plan, with goodput-degradation and recovery report
``lint``          determinism lint: AST rules RPR001.. over the package
                  (wall-clock, RNG, iteration-order, taxonomy hygiene)
``check``         whole-package static contract checker: call-graph +
                  effect propagation enforcing RPC001.. (no blocking in
                  callbacks, audited clock/RNG funnels, race coverage,
                  taxonomy round-trip), plus a dead-code report
``race``          simulated-concurrency race detector: run a preset
                  under happens-before tracking and report conflicts
``campaign``      parallel experiment campaign: decompose experiments
                  into points, execute across a process pool, memoize
                  in a content-addressed result cache
``coll-tune``     collective-algorithm autotuner: sweep every registered
                  algorithm over a (p x size) grid through the campaign
                  cache and emit a tuned selection table
``topo``          routed network topologies: list presets, describe and
                  visualize a link/switch graph, or sweep one collective
                  across topologies and report per-link hot spots
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import config

_STACKS = {
    "mpich2_nmad": config.mpich2_nmad,
    "mpich2_nmad_pioman": config.mpich2_nmad_pioman,
    "mpich2_nmad_netmod": config.mpich2_nmad_netmod,
    "mpich2_nmad_multirail": lambda: config.mpich2_nmad(rails=("ib", "mx")),
    "mpich2_nmad_reliable": config.mpich2_nmad_reliable,
    # progress-engine / registration-cache variants (docs/PROGRESS.md)
    "mpich2_nmad_manual_poll":
        lambda: config.mpich2_nmad_pioman(progress="manual_poll"),
    "mpich2_nmad_dedicated":
        lambda: config.mpich2_nmad_pioman(progress="dedicated_thread"),
    "mpich2_nmad_regcache": lambda: config.mpich2_nmad(ib_reg_cache=8 << 20),
    "mvapich2": config.mvapich2,
    "openmpi_ib": config.openmpi_ib,
    "openmpi_pml_mx": config.openmpi_pml_mx,
    "openmpi_btl_mx": config.openmpi_btl_mx,
}


def _parse_size(text: str) -> int:
    """'4', '64K', '1M' -> bytes."""
    text = text.strip().upper()
    mult = 1
    if text.endswith("K"):
        mult, text = 1024, text[:-1]
    elif text.endswith("M"):
        mult, text = 1 << 20, text[:-1]
    return int(text) * mult


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _stack(name: str):
    try:
        return _STACKS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown stack {name!r}; available: {', '.join(sorted(_STACKS))}")


def _make_sink(args):
    """Build the trace sink selected by ``--sink`` (trace/profile share it).

    ``full`` retains every record in memory, ``ring`` keeps a bounded
    window (``--ring-capacity``), ``jsonl`` spills each record to disk
    (``--jsonl``).  ``--sample`` / ``--sample-entities`` attach a
    deterministic :class:`~repro.simulator.tracing.TraceSampler`.
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
    entities = None
    if getattr(args, "sample_entities", None):
        entities = [int(e) for e in args.sample_entities.split(",")]
    sampler = TraceSampler(strides=strides or None, entities=entities) \
        if (strides or entities is not None) else None
    if args.sink == "ring":
        return RingTrace(args.ring_capacity, sampler=sampler)
    if args.sink == "jsonl":
        return JsonlTrace(args.jsonl, sampler=sampler)
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
    for name in sorted(_STACKS):
        print(f"  {name:24s} -> {_STACKS[name]().name}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import (EXPERIMENTS, fig4_infiniband,
                                   fig5_multirail, fig6_pioman_overhead,
                                   fig7_overlap, fig8_nas)

    modules = {
        "fig4_infiniband": fig4_infiniband,
        "fig5_multirail": fig5_multirail,
        "fig6_pioman_overhead": fig6_pioman_overhead,
        "fig7_overlap": fig7_overlap,
        "fig8_nas": fig8_nas,
    }
    names = args.names or EXPERIMENTS
    for name in names:
        if name not in modules:
            raise SystemExit(f"unknown experiment {name!r}; "
                             f"available: {', '.join(EXPERIMENTS)}")
        modules[name].main(fast=args.fast)
    return 0


def cmd_netpipe(args) -> int:
    from repro.workloads.netpipe import run_netpipe

    sizes = [_parse_size(s) for s in args.sizes.split(",")]
    spec = _stack(args.stack)
    cluster = config.xeon_pair()
    res = run_netpipe(spec, cluster, sizes, reps=args.reps,
                      anysource=args.anysource, intra_node=args.intra)
    print(f"# {spec.name}" + (" (intra-node)" if args.intra else ""))
    print(f"{'size':>10} {'latency_us':>12} {'MiB/s':>10}")
    for i, size in enumerate(res.sizes):
        print(f"{size:>10} {res.latencies[i] * 1e6:>12.2f} "
              f"{res.bandwidths[i]:>10.0f}")
    return 0


def cmd_overlap(args) -> int:
    from repro.workloads.overlap import run_overlap

    spec = _stack(args.stack)
    size = _parse_size(args.size)
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

    spec = _stack(args.stack)
    procs = adjust_procs(args.kernel, args.procs)
    res = run_kernel(args.kernel, args.cls, procs, spec,
                     sim_iters=args.sim_iters)
    print(f"{args.kernel.upper()} class {args.cls}, {procs} processes, "
          f"{spec.name}")
    print(f"projected execution time: {res.time_seconds:.1f} s "
          f"({res.simulated_iters}/{res.total_iters} iterations simulated)")
    return 0


def cmd_trace(args) -> int:
    from repro.observability import (attach_metrics, format_breakdown,
                                     layer_of, message_lives, write_perfetto)
    from repro.runtime import run_mpi
    from repro.simulator import JsonlTrace, load_trace_jsonl
    from repro.workloads.netpipe import pingpong

    if args.reps < 1:
        raise SystemExit("--reps must be >= 1")
    spec = _stack(args.stack)
    size = _parse_size(args.size)
    trace = _make_sink(args)
    metrics = attach_metrics(trace)

    if args.workload == "netpipe":
        program = pingpong(size, reps=args.reps, warmup=0)
    else:  # overlap
        from repro.workloads.overlap import overlap_program
        program = overlap_program(size, compute=400e-6, reps=args.reps,
                                  warmup=0)

    result = run_mpi(program, 2, spec, cluster=config.xeon_pair(),
                     trace=trace)
    sink_line = _sink_summary(trace)
    partial = ""
    if isinstance(trace, JsonlTrace):
        # round-trip through the spill file: the reloaded trace is the
        # full record stream, so breakdown/export work as with a full sink
        trace.close()
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

    if args.reps < 1:
        raise SystemExit("--reps must be >= 1")
    spec = _stack(args.stack)
    size = _parse_size(args.size)
    trace = _make_sink(args)
    metrics = attach_metrics(trace)
    prof = SpanProfiler().attach(trace)

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

    runtime = MPIRuntime(nprocs, spec, cluster=cluster, trace=trace)
    result = runtime.run(program)
    prof.finalize(runtime.sim.now)
    stats = record_engine_metrics(runtime.sim, metrics.registry)

    folded_path = prof.write_folded(args.folded)
    write_perfetto(trace, args.perfetto, spans=prof.all_spans())
    if isinstance(trace, JsonlTrace):
        trace.close()

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


def cmd_faults(args) -> int:
    import json

    from repro.faults import run_chaos

    spec = _stack(args.stack)
    if spec.reliability is None:
        raise SystemExit(f"stack {args.stack!r} has no reliability layer; "
                         "use mpich2_nmad_reliable (or a spec with "
                         "reliability set)")
    report = run_chaos(plan_name=args.plan, messages=args.messages,
                       size=_parse_size(args.size), seed=args.seed,
                       spec=spec, drop_prob=args.drop_prob)
    print(report.format_text())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"metrics JSON written to {args.out}")
    return 0 if report.exactly_once else 1


def _emit_findings(violations, fmt: str, tool: str, rules,
                   output: Optional[str]) -> None:
    """Render findings in ``fmt``; text goes line-by-line to stdout."""
    from repro.analysis.reporting import render

    if fmt == "text" and output is None:
        for violation in violations:
            print(violation.format())
        return
    document = render(violations, fmt, tool, rules)
    if output is None:
        print(document)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(document + "\n")
        print(f"{fmt} report ({len(violations)} finding(s)) written "
              f"to {output}")


def cmd_lint(args) -> int:
    import os

    from repro.analysis.lint import (RULES, load_baseline, rule_catalog,
                                     run_lint, save_baseline)

    if args.list_rules:
        for rule in RULES:
            print(f"  {rule.code}  {rule.name:18s} {rule.summary}")
        return 0
    paths = args.paths or None
    if args.update_baseline:
        result = run_lint(paths)
        save_baseline(args.update_baseline, result.violations)
        print(f"baseline of {len(result.violations)} finding(s) written "
              f"to {args.update_baseline}")
        return 0
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(".repro-lint-baseline.json"):
        baseline_path = ".repro-lint-baseline.json"
    baseline = load_baseline(baseline_path) if baseline_path else None
    result = run_lint(paths, baseline=baseline)
    _emit_findings(result.violations, args.format, "repro-lint",
                   rule_catalog(), args.output)
    status = "clean" if result.clean else \
        f"{len(result.violations)} violation(s)"
    suppressed = f", {len(result.baselined)} baselined" if result.baselined \
        else ""
    print(f"repro lint: {result.files} file(s), {status}{suppressed}")
    return 0 if result.clean else 1


def cmd_check(args) -> int:
    import os

    from repro.analysis.reporting import load_baseline
    from repro.analysis.static import (check_package, contract_catalog,
                                       default_target, run_check,
                                       save_baseline)

    if args.list_contracts:
        for code, summary in contract_catalog():
            print(f"  {code}  {summary}")
        return 0
    root = args.root or default_target()
    if args.update_baseline:
        found, _graph, _analysis, _dead = check_package(root)
        save_baseline(args.update_baseline, found)
        print(f"baseline of {len(found)} finding(s) written "
              f"to {args.update_baseline}")
        return 0
    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(".repro-check-baseline.json"):
        baseline_path = ".repro-check-baseline.json"
    baseline = load_baseline(baseline_path) if baseline_path else None
    result = run_check(root, baseline=baseline, dead_code=args.dead_code)
    _emit_findings(result.violations, args.format, "repro-check",
                   contract_catalog(), args.output)
    if args.dead_code:
        for info in result.dead:
            kind = "method" if info.is_method else "function"
            print(f"dead: {info.qname} ({kind}, {info.path}:{info.line})")
        print(f"dead-code report: {len(result.dead)} unreachable public "
              f"function(s)")
    if args.stats:
        analysis = result.analysis
        edges = sum(len(result.graph.edges[k])
                    for k in sorted(result.graph.edges))
        print(f"call graph: {len(result.graph.functions)} function(s), "
              f"{edges} edge(s), "
              f"{len(result.graph.registrations)} callback "
              f"registration(s) across {result.files} module(s)")
        blocking = sum(1 for q in sorted(analysis.functions)
                       if "BLOCKS" in analysis.functions[q].out)
        generators = sum(1 for q in sorted(analysis.functions)
                         if analysis.functions[q].is_generator)
        print(f"effects: {generators} generator(s), {blocking} "
              f"host-blocking function(s)")
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
    spec = _stack(args.preset)
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
    report = run_race(spec, size=_parse_size(args.size), reps=args.reps,
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

    spec_stack = _stack(args.stack)
    size = _parse_size(args.size)
    for text in args.topology.split(","):
        topo = parse_topology(text)
        cluster = None
        if topo is not None:
            if topo.capacity < args.nprocs:
                raise SystemExit(f"{topo.name} holds {topo.capacity} "
                                 f"node(s) < --nprocs {args.nprocs}")
            cluster = config.ClusterSpec(n_nodes=args.nprocs, topology=topo)
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
    from repro.campaign.runner import ALL_MODULES

    names = args.names or None
    for name in args.names:
        if name not in ALL_MODULES:
            raise SystemExit(f"unknown experiment module {name!r}; "
                             f"available: {', '.join(ALL_MODULES)}")
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


def cmd_coll_tune(args) -> int:
    import json

    from repro.campaign import ResultCache
    from repro.coll.tuning import tune

    if args.stack not in _STACKS:
        raise SystemExit(f"unknown stack {args.stack!r}; "
                         f"available: {', '.join(sorted(_STACKS))}")
    procs = ([int(p) for p in args.procs.split(",")]
             if args.procs else None)
    sizes = ([_parse_size(s) for s in args.sizes.split(",")]
             if args.sizes else None)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = tune(stack_preset=args.stack, procs=procs, sizes=sizes,
                  reps=args.reps, fast=args.fast, workers=args.workers,
                  cache=cache, force=args.force)
    # artifacts land before the summary so a closed stdout can't lose them
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.table.dumps())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    print(report.format_summary())
    if args.out:
        print(f"tuned selection table written to {args.out}")
    if args.report:
        print(f"tuning report written to {args.report}")
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

    p = sub.add_parser("experiments", help="run paper-figure reproductions")
    p.add_argument("names", nargs="*", help="figure modules (default: all)")
    p.add_argument("--fast", action="store_true", help="reduced sweeps")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("netpipe", help="latency/bandwidth sweep")
    p.add_argument("--stack", default="mpich2_nmad")
    p.add_argument("--sizes", default="4,1K,64K,1M",
                   help="comma list, K/M suffixes allowed")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--anysource", action="store_true")
    p.add_argument("--intra", action="store_true",
                   help="both ranks on one node (shared memory)")
    p.set_defaults(fn=cmd_netpipe)

    p = sub.add_parser("overlap", help="isend/compute/wait measurement")
    p.add_argument("--stack", default="mpich2_nmad_pioman")
    p.add_argument("--size", default="256K")
    p.add_argument("--compute", default="400", help="microseconds")
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(fn=cmd_overlap)

    p = sub.add_parser("nas", help="run one NAS kernel")
    p.add_argument("--kernel", default="cg",
                   choices=["bt", "cg", "ep", "ft", "sp", "mg", "lu", "is"])
    p.add_argument("--cls", default="A", choices=["A", "B", "C"])
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--stack", default="mpich2_nmad")
    p.add_argument("--sim-iters", type=int, default=None)
    p.set_defaults(fn=cmd_nas)

    p = sub.add_parser("trace", help="trace a workload; export Perfetto "
                                     "JSON + metrics + latency breakdown")
    p.add_argument("--stack", default="mpich2_nmad_pioman")
    p.add_argument("--workload", default="netpipe",
                   choices=["netpipe", "overlap"])
    p.add_argument("--size", default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", default="trace.json",
                   help="Perfetto JSON output path")
    _add_sink_options(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("profile", help="sim-time span profiler: top-N "
                                       "table, folded flame graph, "
                                       "Perfetto spans")
    p.add_argument("stack", nargs="?", default="mpich2_nmad",
                   help="stack preset (see `repro stacks`)")
    p.add_argument("workload", nargs="?", default="pingpong",
                   choices=["pingpong", "overlap", "collbench"])
    p.add_argument("--size", default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--np", type=int, default=8,
                   help="process count (collbench only)")
    p.add_argument("--coll", default="allreduce",
                   help="collective to profile (collbench only)")
    p.add_argument("--top", type=int, default=15,
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

    p = sub.add_parser("faults", help="chaos run under a named fault plan")
    p.add_argument("--plan", default="drop+outage",
                   help="clean, drop, corrupt, outage, drop+outage, stall")
    p.add_argument("--stack", default="mpich2_nmad_reliable")
    p.add_argument("--size", default="512K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--messages", type=int, default=16)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--drop-prob", type=float, default=0.01)
    p.add_argument("--out", default=None,
                   help="write the full report as JSON to this path")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser("lint", help="determinism lint over the package")
    p.add_argument("paths", nargs="*",
                   help="files/dirs to lint (default: the repro package)")
    p.add_argument("--baseline", default=None,
                   help="baseline JSON (default: .repro-lint-baseline.json "
                        "in the cwd when present)")
    p.add_argument("--update-baseline", metavar="PATH", default=None,
                   help="write current findings as the new baseline and exit")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="findings output format")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write the findings report to a file instead of "
                        "stdout")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("check", help="whole-package static contract "
                                     "checker (call graph + effects)")
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
    p.add_argument("--dead-code", action="store_true",
                   help="also report unreachable public functions "
                        "(advisory; does not affect the exit status)")
    p.add_argument("--stats", action="store_true",
                   help="print call-graph and effect statistics")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("race", help="happens-before race detector run")
    p.add_argument("--preset", "--stack", dest="preset",
                   default="mpich2_nmad_reliable",
                   help="stack preset to run under the detector")
    p.add_argument("--size", default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=int, default=3)
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
    p.add_argument("--stack", default="mpich2_nmad")
    p.add_argument("--coll", default="allreduce")
    p.add_argument("--algo", default=None,
                   help="force one algorithm (default: selection table)")
    p.add_argument("--nprocs", type=int, default=8)
    p.add_argument("--size", default="64K",
                   help="message size, K/M suffixes allowed")
    p.add_argument("--reps", type=int, default=2)
    p.add_argument("--links", type=int, default=5,
                   help="hottest links to print per topology")
    p.set_defaults(fn=cmd_topo)

    p = sub.add_parser("campaign", help="parallel, cached experiment "
                                        "campaign over the paper figures")
    p.add_argument("names", nargs="*",
                   help="experiment modules (default: all of run_all)")
    p.add_argument("--workers", type=int, default=1,
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

    p = sub.add_parser("coll-tune", help="autotune collective-algorithm "
                                         "selection over a (p x size) grid")
    p.add_argument("--stack", default="mpich2_nmad")
    p.add_argument("--procs", default=None,
                   help="comma list of process counts (default 4,8,16)")
    p.add_argument("--sizes", default=None,
                   help="comma list of sizes, K/M suffixes allowed")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--fast", action="store_true",
                   help="shrunken grid (one p, two sizes) for smoke runs")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width (1 = in-process)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="content-addressed result cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache entirely")
    p.add_argument("--force", action="store_true",
                   help="recompute every cell even on a cache hit")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the tuned selection table JSON to PATH")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write winners + measurements as JSON to PATH")
    p.set_defaults(fn=cmd_coll_tune)
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
