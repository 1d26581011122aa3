#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the simulated MPICH2/NewMadeleine stack.

    python3 benchmarks/e2e/run.py                       # all six workloads
    python3 benchmarks/e2e/run.py --workload nas_lu_p16 --seed 3
    python3 benchmarks/e2e/run.py --trace 1             # per-layer numbers
    python3 benchmarks/e2e/run.py --runs 10 --label A   # a set for compare
    python3 benchmarks/e2e/run.py compare out/result_A.json out/result_B.json

Each workload runs in a fresh interpreter (``child.py``), one after
another.  Every metric named in ``BENCHMARK.json`` is printed by name with
its unit; with ``--workload`` the last line of standard output is the JSON
object the benchmark contract asks for.  The exit status is non-zero when
an output check fails.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: set-ups per run (fresh interpreters); ``setup_s`` is their median
SETUPS_PER_RUN = 3


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn_child(workload: str, seed: int, scale: float, trace: int,
                quick: bool = False, setup_only: bool = False,
                ) -> Dict[str, Any]:
    """Run ``child.py`` to completion and return the document it printed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_SCHEDULER", "REPRO_PROGRESS")}
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    # subprocess.run waits for the child, and kills it first if we are
    # interrupted: no process outlives the benchmark
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: child for {workload} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(spec: Dict[str, Any], workload: str, seed: int,
                 seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    """One run of one workload: the contract's result plus the detail."""
    scale = seconds / spec["run_seconds"]
    setups = []
    if not trace and not quick:
        setups = [spawn_child(workload, seed, scale, 0,
                              setup_only=True)["setup_s"]
                  for _ in range(SETUPS_PER_RUN - 1)]
    doc = spawn_child(workload, seed, scale, trace, quick=quick)
    setups.append(doc["setup_s"])
    values = dict(doc["values"])
    values["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise SystemExit(f"error: {workload}: no value for "
                         f"{', '.join(missing)} (did every rep fail? "
                         f"failed checks: {doc['failed_checks']})")
    doc["metrics"] = {m["name"]: {"value": values[m["name"]],
                                  "unit": m["unit"]} for m in wanted}
    doc["setup_s_samples"] = setups
    doc["trace"] = trace
    # a --quick run is a smoke test, never a measurement
    doc["valid_for_comparison"] = not quick
    return doc


def contract_line(doc: Dict[str, Any]) -> str:
    failed = len(doc["failed_checks"])
    return json.dumps({"correct": failed == 0,
                       "attempted": doc["checks_attempted"],
                       "failed": failed, "metrics": doc["metrics"]})


def print_run(doc: Dict[str, Any]) -> None:
    failed = len(doc["failed_checks"])
    attempted = doc["checks_attempted"]
    print(f"== {doc['workload']}  seed={doc['seed']} reps={doc['reps']} "
          f"op={doc['op']!r} x{doc['ops_per_rep']}  "
          f"scheduler={doc['scheduler']} "
          f"progress={','.join(doc['progress']) or '-'}"
          + ("" if doc["valid_for_comparison"]
             else "  [--quick: NOT valid for comparison]"))
    for name, metric in doc["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6f} fraction "
          f"({failed} of {attempted} checks failed)")
    for name, value in doc["detail"].items():
        print(f"  ({name}: {value})")
    for name in doc["failed_checks"]:
        print(f"  FAILED CHECK {name}")


def main_run(argv: List[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives input generation only (default 0)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="scales the fixed rep counts from the nominal "
                             f"{spec['run_seconds']} s run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="1 rep, smoke test only")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the set, seeds seed..seed+runs-1")
    parser.add_argument("--label", default="last",
                        help="write out/result_<label>.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: the benchmark runs from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the only build step: byte-compile once so that no run pays for it
    compileall.compile_dir(SRC, quiet=2)
    compileall.compile_dir(HERE, maxlevels=0, quiet=2)

    selected = [args.workload] if args.workload else names
    runs: List[Dict[str, Any]] = []
    failed = 0
    for i in range(args.runs):
        for workload in selected:
            doc = run_workload(spec, workload, args.seed + i, args.seconds,
                               args.trace, args.quick)
            runs.append(doc)
            failed += len(doc["failed_checks"])
            print_run(doc)
        if not args.workload and not args.trace:
            by_name = {d["workload"]: d for d in runs[-len(selected):]}
            ratio = (by_name["pingpong_ring_traced"]["metrics"]
                     ["rep_wall_s_p50"]["value"]
                     / by_name["pingpong_eager"]["metrics"]
                     ["rep_wall_s_p50"]["value"])
            print(f"== tracing overhead a user pays: pingpong_ring_traced / "
                  f"pingpong_eager = {ratio:.4f} (rep_wall_s_p50)")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result_{args.label}.json")
    with open(path, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1)
    print(f"== results written to {os.path.relpath(path, ROOT)}")
    if args.workload:
        print(contract_line(runs[-1]))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare A.json B.json
# ---------------------------------------------------------------------------

def _series(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [one value per untraced run]}}``."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    series: Dict[str, Dict[str, List[float]]] = {}
    for doc in runs:
        if doc["trace"] or not doc["valid_for_comparison"]:
            continue
        for name, metric in doc["metrics"].items():
            series.setdefault(doc["workload"], {}) \
                .setdefault(name, []).append(metric["value"])
    return series


def _spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict[str, Any]:
    """How B's median compares with A's, by the benchmark's own bound."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spread = max(_spread(a), _spread(b))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse_by > bound:
        status = "worse"
    elif spread > bound and not all_better:
        # the runs scatter more than the bound: neither changed nor not
        status = "unresolved"
    else:
        status = "ok"
    return {"a": med_a, "b": med_b, "worse_by": worse_by, "spread": spread,
            "status": status}


def main_compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    spec = load_spec()
    a, b = _series(args.a), _series(args.b)
    print(f"{'workload':<22} {'metric':<18} {'A median':>14} {'B median':>14}"
          f" {'B worse by':>10} {'spread':>8} {'bound':>6}  verdict")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a.get(workload, {}) \
                    or name not in b.get(workload, {}):
                print(f"{workload:<22} {name:<18} (missing from a file)")
                continue
            v = verdict(a[workload][name], b[workload][name],
                        metric["better"], metric["bound"])
            any_worse |= v["status"] == "worse"
            print(f"{workload:<22} {name:<18} {v['a']:>14.6f} {v['b']:>14.6f}"
                  f" {v['worse_by']:>+10.2%} {v['spread']:>8.2%}"
                  f" {metric['bound']:>6.1%}  {v['status']}"
                  f"  [{metric['unit']}, n={len(a[workload][name])}"
                  f"/{len(b[workload][name])}]")
    return 1 if any_worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a terminated benchmark still reaps its child (see spawn_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
