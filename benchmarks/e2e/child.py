"""One workload in a fresh interpreter; prints one JSON document.

Started by ``run.py`` (never imported by it): set-up is timed from the
parent's spawn stamp to the first timed rep, and everything is measured in
this single process, in-process, with no threads.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import heapq
import json
import os
import random
import statistics
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional

import layers
from probe import Probe
from workloads import CAMPAIGN_METRICS, OUT_DIR, WORKLOADS, Workload

#: a traced run first does a tenth of the timed reps (at least one)
#: untraced: the reference its overhead ratios and event rates are against
TRACE_REFERENCE_SHARE = 10

#: calibration loops per run (about 2 s), shared by its rep boundaries
CALIBRATION_LOOPS = 64


class Rep:
    """What a workload's ``rep`` sees: the timer, the probe, its extras."""

    def __init__(self, probe: Probe, profiler: Optional[cProfile.Profile]):
        self.probe = probe
        self.profiler = profiler
        self.wall = self.cpu = 0.0
        self.extra: Dict[str, Any] = {}

    @contextlib.contextmanager
    def timed(self) -> Iterator[None]:
        """The measured region of the rep (profiled in pass A)."""
        with self.probe.span("rep"):
            if self.profiler is not None:
                self.profiler.enable()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                yield
            finally:
                self.wall = time.perf_counter() - wall0
                self.cpu = time.process_time() - cpu0
                if self.profiler is not None:
                    self.profiler.disable()


class Session:
    """Runs reps of one workload and checks each against the reference."""

    def __init__(self, workload: Workload, inputs: Any, probe: Probe):
        self.workload = workload
        self.inputs = inputs
        self.probe = probe
        self.reference: Optional[Dict[str, Any]] = None
        self.checks_attempted = 0
        self.failed_checks: List[str] = []

    def _check(self, name: str, ok: bool, rep_id: int) -> None:
        self.checks_attempted += 1
        if not ok:
            self.failed_checks.append(f"rep{rep_id}:{name}")

    def rep(self, telemetry: Optional[layers.SimTelemetry] = None,
            profiler: Optional[cProfile.Profile] = None,
            ) -> Optional[Dict[str, Any]]:
        """One rep; ``None`` (and one failed check) if it raised."""
        probe = self.probe
        probe.rep_id += 1
        probe.reset()
        probe.trace_factory = telemetry.new_trace if telemetry else None
        m = Rep(probe, profiler)
        gc.collect()
        try:
            outputs, checks = self.workload.rep(self.inputs, m)
        except Exception:
            # a failed rep, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            self._check("completed", False, probe.rep_id)
            return None
        finally:
            probe.trace_factory = None
        self._check("completed", True, probe.rep_id)
        for name, ok in checks:
            self._check(name, ok, probe.rep_id)
        sample = {"wall": m.wall, "cpu": m.cpu, "outputs": outputs,
                  "events": probe.events, "batches": probe.batches,
                  "queue_peak": probe.queue_peak, "builds": probe.builds,
                  "build_s": probe.build_s, "run_s": probe.run_s,
                  "extra": m.extra}
        if self.reference is None:
            self.reference = sample
        else:
            # simulated results and work counts must repeat bit for bit —
            # for the ring-traced twin the reference rep ran untraced, so
            # this is also "tracing must not perturb"
            self._check("outputs_match_reference",
                        outputs == self.reference["outputs"], probe.rep_id)
            self._check("events_match_reference",
                        probe.events == self.reference["events"],
                        probe.rep_id)
        return sample

    def timed_rep(self, profiler: Optional[cProfile.Profile] = None,
                  ) -> Optional[Dict[str, Any]]:
        """A rep as the end-to-end metrics see it (ring sink if the
        workload is the traced twin, nothing otherwise)."""
        telemetry = (layers.SimTelemetry(ring=True, profile=False)
                     if self.workload.ring_traced else None)
        return self.rep(telemetry, profiler)


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4)


def calibration_cpu_s() -> float:
    """``process_time`` of a fixed interpreter-bound loop (about 30 ms).

    The host's effective speed drifts by some 10 % over minutes (measured
    on this VM: other guests, frequency), and raw seconds drift with it.
    This loop — generator resumes, heap pushes and pops, dict traffic, the
    simulator's own diet — slows by the same factor, so a rep's CPU time
    divided by the loop's, taken right before and after the rep, does not.
    """
    def ticks(n):
        for i in range(n):
            yield i

    heap: List[Any] = []
    table: Dict[int, float] = {}
    total = 0.0
    t0 = time.process_time()
    for i in ticks(48000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[0]
        table[i & 255] = total
        total += table.get((i * 3) & 255, 0.0) * 1e-9
    return time.process_time() - t0


def timed_reps(session: Session, reps: int) -> List[Dict[str, Any]]:
    """The timed reps, each with the calibration loop's time around it.

    Every run calibrates about as long (``CALIBRATION_LOOPS`` loops), split
    evenly over its rep boundaries; a boundary reports the median loop.
    """
    loops = max(1, CALIBRATION_LOOPS // (reps + 1))

    def calibrate() -> float:
        return statistics.median(calibration_cpu_s() for _ in range(loops))

    samples = []
    before = calibrate()
    for _ in range(reps):
        sample = session.timed_rep()
        after = calibrate()
        if sample is not None:
            sample["calibration"] = (before + after) / 2.0
            samples.append(sample)
        before = after
    return samples


def end_to_end(workload: Workload, samples: List[Dict[str, Any]],
               ) -> Dict[str, Any]:
    from repro.observability import peak_rss_kib

    walls = [s["wall"] for s in samples]
    cpus = [s["cpu"] for s in samples]
    events = sum(s["events"] for s in samples)
    wall_p50 = _median(walls)
    return {
        "values": {
            "rep_wall_s_p50": wall_p50,
            "rep_cpu_s_p50": _median(cpus),
            "rep_cpu_norm_p50":
                _median([s["cpu"] / s["calibration"] for s in samples]),
            "peak_rss_mib": peak_rss_kib() / 1024.0,
            "sim_events_per_op":
                events / (len(samples) * workload.ops) if samples else None,
        },
        # printed with every timing, not gated
        "detail": {
            "samples": len(samples),
            "rep_wall_s_min": min(walls, default=None),
            "rep_wall_s_quartiles": _quartiles(walls),
            "rep_cpu_s_quartiles": _quartiles(cpus),
            "ops_per_host_s": workload.ops / wall_p50 if wall_p50 else None,
        },
    }


def per_layer(workload: Workload, session: Session, n_reference: int,
              ) -> Dict[str, Any]:
    """The traced run: untraced reference reps, pass A, then pass B."""
    probe = session.probe
    reference = [s for s in (session.timed_rep() for _ in range(n_reference))
                 if s is not None]
    values: Dict[str, Any] = {}
    wall_p50 = _median([s["wall"] for s in reference])
    last = reference[-1] if reference else None
    if last is not None:
        values.update({
            "simulator.events": last["events"],
            "simulator.batches": last["batches"],
            "simulator.events_per_batch":
                last["events"] / last["batches"] if last["batches"] else 0.0,
            "simulator.queue_peak": last["queue_peak"],
            "simulator.events_per_s": last["events"] / wall_p50,
            "simulator.host_us_per_event": 1e6 * wall_p50 / last["events"],
            "runtime.builds": last["builds"],
            "runtime.build_s": _median([s["build_s"] for s in reference]),
            "runtime.run_s": _median([s["run_s"] for s in reference]),
        })
        values.update(dict.fromkeys(CAMPAIGN_METRICS, 0.0))
        values.update(last["extra"])

    # pass A: host time by layer, with harness spans around public calls
    probe.spans = []
    profiler = cProfile.Profile()
    profiled = session.timed_rep(profiler)
    spans = probe.spans_with_self_time()
    probe.spans = None
    folded = layers.fold_profile(profiler)
    for layer, row in folded.items():
        values[f"{layer}.self_share"] = row["self_share"]
        values[f"{layer}.calls"] = row["calls"]
    if profiled is not None and wall_p50:
        values["trace_overhead_ratio"] = profiled["wall"] / wall_p50

    # pass B: the program's own trace, live metrics and span profiler
    traced = None
    telemetry = layers.SimTelemetry(ring=workload.ring_traced, profile=True)
    if workload.pass_b:
        traced = session.rep(telemetry)
    values.update(telemetry.metrics())
    values["simulator.tracing.overhead_ratio"] = (
        traced["wall"] / wall_p50 if traced is not None and wall_p50
        else 0.0)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
              "w") as fh:
        json.dump({"workload": workload.name, "spans": spans,
                   "layers": folded}, fh, indent=1)
    return {"values": values, "detail": {"samples": len(reference)}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="run length as a share of the nominal one")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(layers.SRC, "repro")):
        print(f"error: {layers.SRC}/repro not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # the benchmark measures the defaults: clear the knobs before repro loads
    for knob in ("REPRO_SCHEDULER", "REPRO_PROGRESS"):
        os.environ.pop(knob, None)
    sys.path.insert(0, layers.SRC)
    import repro  # noqa: F401  (set-up pays for the import)

    workload = WORKLOADS[args.workload]
    # rep counts are fixed per workload and scaled by the run length asked
    # for, never budgeted by the clock, so that two commits do the same work
    reps = 1 if args.quick else max(1, round(workload.reps * args.scale))
    # the seed drives input generation only
    inputs = workload.make_inputs(random.Random(args.seed))
    probe = Probe()
    session = Session(workload, inputs, probe)
    with probe.installed():
        if workload.warmup:
            session.rep()            # untraced, also for the traced twin
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            result: Dict[str, Any] = {"values": {}, "detail": {}}
        elif args.trace:
            result = per_layer(
                workload, session, max(1, reps // TRACE_REFERENCE_SHARE))
        else:
            result = end_to_end(workload, timed_reps(session, reps))
    result.update({
        "workload": workload.name, "seed": args.seed, "reps": reps,
        "op": workload.op, "ops_per_rep": workload.ops,
        "setup_s": setup_s,
        "scheduler": probe.scheduler,
        "progress": sorted(probe.progress),
        "checks_attempted": session.checks_attempted,
        "failed_checks": session.failed_checks,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
