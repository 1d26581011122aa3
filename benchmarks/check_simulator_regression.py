"""Guard against simulator hot-path regressions (two-sided).

Compares a fresh ``--benchmark-json`` run of ``bench_simulator.py``
against the committed baseline ``BENCH_simulator.json``.  The ratchet
statistic is each benchmark's per-round **minimum**, not its mean:
scheduler noise on a shared box only ever *adds* time, so the min is
the stable estimate of the code's actual cost while means and medians
swing with ambient load.

* a benchmark whose throughput (1 / min seconds) drops more than the
  threshold (default 15 %) is a **REG** and the run exits non-zero;
* one that *gains* more than the threshold is an **IMP** — it passes,
  but the guard emits an updated baseline (``<baseline>.updated``, or
  in place with ``--update-baseline``) so the improvement gets locked
  in instead of becoming headroom for a later regression;
* benchmarks new in the current run are **NEW** and enter the emitted
  baseline.

Every run appends one JSON line to ``--history`` (default
``benchmarks/bench_history.jsonl``) with the per-benchmark timings and
ratios; ``repro perf`` renders the trajectory.  Timestamps come from
pytest-benchmark's own metadata, so the guard itself never reads the
wall clock.

Usage::

    pytest benchmarks/bench_simulator.py --benchmark-only \
        --benchmark-json=NEW.json
    python benchmarks/check_simulator_regression.py NEW.json \
        [--baseline BENCH_simulator.json] [--threshold 0.15] \
        [--history benchmarks/bench_history.jsonl | --no-history] \
        [--update-baseline]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Any, Dict, Optional, Tuple

DEFAULT_HISTORY = os.path.join(os.path.dirname(__file__),
                               "bench_history.jsonl")

def _load(path: str) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """benchmark fullname -> min seconds per round, plus run metadata."""
    with open(path) as fh:
        data = json.load(fh)
    mins = {}
    for bench in data["benchmarks"]:
        timing = bench["stats"]["min"]
        if timing > 0:
            mins[bench["fullname"]] = timing
    meta = {"datetime": data.get("datetime"),
            "commit": (data.get("commit_info") or {}).get("id")}
    return mins, meta


def _append_history(path: str, entry: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True))
        fh.write("\n")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail on simulator benchmark throughput regressions; "
                    "detect and lock in improvements")
    parser.add_argument("current", help="fresh --benchmark-json output")
    parser.add_argument("--baseline",
                        default=os.path.join(os.path.dirname(__file__),
                                             os.pardir,
                                             "BENCH_simulator.json"))
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fractional throughput change that counts as "
                             "a regression (drop) or improvement (gain)")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help="JSONL file receiving one line per guard run")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the history append")
    parser.add_argument("--update-baseline", action="store_true",
                        help="overwrite the baseline with the current run "
                             "(instead of writing <baseline>.updated on "
                             "improvement)")
    args = parser.parse_args(argv)

    base_mins, _ = _load(args.baseline)
    cur_mins, cur_meta = _load(args.current)
    if not base_mins:
        print("no baseline benchmarks found", file=sys.stderr)
        return 2

    failures = []
    regressions = []
    improvements = []
    benches: Dict[str, Dict[str, Optional[float]]] = {}
    for name, base_min in sorted(base_mins.items()):
        if name not in cur_mins:
            failures.append(f"{name}: missing from current run")
            regressions.append(name)
            benches[name] = {"min": None, "base_min": base_min,
                             "ratio": None}
            continue
        timing = cur_mins[name]
        ratio = base_min / timing   # throughput ratio: >1 = faster now
        benches[name] = {"min": timing, "base_min": base_min,
                         "ratio": ratio}
        marker = "OK "
        if ratio < 1.0 - args.threshold:
            marker = "REG"
            regressions.append(name)
            failures.append(
                f"{name}: {ratio:.2f}x baseline throughput "
                f"(limit {1.0 - args.threshold:.2f}x)")
        elif ratio > 1.0 + args.threshold:
            marker = "IMP"
            improvements.append(name)
        print(f"  {marker} {name.split('::')[-1]:44s} {ratio:6.2f}x baseline")
    new_names = sorted(set(cur_mins) - set(base_mins))
    for name in new_names:
        benches[name] = {"min": cur_mins[name], "base_min": None,
                         "ratio": None}
        print(f"  NEW {name.split('::')[-1]:44s} (no baseline)")

    if not args.no_history:
        _append_history(args.history, {
            "datetime": cur_meta.get("datetime"),
            "commit": cur_meta.get("commit"),
            "baseline": os.path.basename(args.baseline),
            "threshold": args.threshold,
            "benches": benches,
            "regressions": regressions,
            "improvements": improvements,
            "new": new_names,
        })
        print(f"\nhistory entry appended to {args.history}")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.update_baseline:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline {args.baseline} updated from current run")
    elif improvements or new_names:
        updated = args.baseline + ".updated"
        shutil.copyfile(args.current, updated)
        what = []
        if improvements:
            what.append(f"{len(improvements)} improvement(s) beyond "
                        f"{args.threshold:.0%}")
        if new_names:
            what.append(f"{len(new_names)} new benchmark(s)")
        print(f"\n{' and '.join(what)}: updated baseline written to "
              f"{updated} (commit it, or rerun with --update-baseline)")

    print(f"\nall {len(base_mins)} baseline benchmarks within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
