"""Per-layer numbers of the traced run.

Pass A folds a ``cProfile`` of one rep by source path into this repo's
layers (host time: ``self_share`` and ``calls``).  Pass B reads the
program's own public telemetry — a trace sink with ``attach_metrics`` and
a ``SpanProfiler`` per simulated job — for exact counts and per-layer
*simulated* busy time.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")
_PACKAGE = os.path.join(SRC, "repro") + os.sep

#: path prefix under ``src/repro/`` -> layer; first match wins.  Layers are
#: the repo's packages, split one level deeper where the ROADMAP aims work.
_RULES = (
    ("simulator/schedulers.py", "simulator.schedulers"),
    ("simulator/events.py", "simulator.events"),
    ("simulator/process.py", "simulator.process"),
    ("simulator/resources.py", "simulator.resources"),
    ("simulator/tracing.py", "simulator.tracing"),
    ("simulator/", "simulator.engine"),      # engine, hostclock, rng, errors
    ("threads/", "threads"),
    ("hardware/", "hardware"),
    ("nmad/core.py", "nmad.core"),
    ("nmad/strategies/", "nmad.strategies"),
    ("nmad/drivers/", "nmad.drivers"),
    ("nmad/", "nmad.other"),
    ("pioman/", "pioman"),
    ("mpich2/ch3.py", "mpich2.ch3"),
    ("mpich2/stackbase.py", "mpich2.stackbase"),
    ("mpich2/nemesis/", "mpich2.nemesis"),
    ("mpich2/", "mpich2.other"),
    ("mpi/", "mpi"),
    ("coll/", "coll"),
    ("comparators/", "comparators"),
    ("workloads/", "workloads"),
    ("campaign/", "campaign"),
    ("experiments/", "experiments"),
    ("observability/", "observability"),
    ("", "runtime"),                         # runtime/, config.py, the rest
)

LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in _RULES)) \
    + ("python",)


def layer_of_path(path: str) -> str:
    """The layer a profiled function's file belongs to.

    The harness's own rank programs count as ``workloads``; builtins, the
    standard library and third-party code as ``python``.
    """
    if path.startswith(_PACKAGE):
        rel = path[len(_PACKAGE):].replace(os.sep, "/")
        for prefix, layer in _RULES:
            if rel.startswith(prefix):
                return layer
    if path.startswith(_HERE + os.sep):
        return "workloads"
    return "python"


def fold_profile(profiler) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls", "self_share"}}`` from a cProfile."""
    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (path, _line, _name), (_cc, ncalls, tottime, _ct, _callers) \
            in stats.items():
        row = folded[layer_of_path(path)]
        row["self_s"] += tottime
        row["calls"] += ncalls
    total = sum(row["self_s"] for row in folded.values())
    for row in folded.values():
        row["self_share"] = row["self_s"] / total if total > 0 else 0.0
    return folded


class SimTelemetry:
    """One trace sink per simulated job, all feeding one metrics registry."""

    def __init__(self, ring: bool, profile: bool):
        from repro.observability import MetricsRegistry

        self.ring = ring
        self.profile = profile
        self.registry = MetricsRegistry()
        self.sinks: List[Any] = []
        self.profilers: List[Any] = []

    def new_trace(self):
        from repro.observability import SpanProfiler, attach_metrics
        from repro.simulator.tracing import RingTrace, Trace

        sink = RingTrace(1024) if self.ring else Trace()
        attach_metrics(sink, self.registry)
        if self.profile:
            self.profilers.append(SpanProfiler().attach(sink))
        self.sinks.append(sink)
        return sink

    def metrics(self) -> Dict[str, float]:
        """Counts and simulated busy time at each layer's boundary."""
        snapshot = self.registry.snapshot()

        def total(name: str, field: str = "value") -> float:
            """A metric summed over its labels (``name``, ``name[...]``)."""
            return sum(row[field] for key, row in snapshot.items()
                       if key == name or key.startswith(name + "["))

        busy: Dict[str, float] = {}
        for profiler in self.profilers:
            profiler.finalize()
            for layer, row in profiler.per_layer().items():
                busy[layer] = busy.get(layer, 0.0) + row["exclusive"]
        us = 1e6
        polls = total("pioman.polls")
        pw_built = total("strategy.pw_entries", "count")
        return {
            "mpich2.sends": total("mpich2.sends"),
            "mpich2.recv_posts": total("mpich2.recv_posts"),
            "mpich2.sim_busy_us": busy.get("mpich2", 0.0) * us,
            "nmad.messages_sent": total("nmad.messages_sent"),
            "nmad.unexpected": total("nmad.unexpected"),
            "nmad.pw_built": pw_built,
            "nmad.entries_per_pw": (
                total("strategy.pw_entries", "sum") / pw_built
                if pw_built else 0.0),
            "nmad.sim_busy_us": (busy.get("nmad", 0.0)
                                 + busy.get("strategy", 0.0)) * us,
            "pioman.polls": polls,
            "pioman.ltasks": total("pioman.ltasks"),
            "pioman.sem_waits": total("pioman.sem_waits"),
            "pioman.msgs_per_poll": (
                total("nmad.messages_received") / polls
                if polls else 0.0),
            "pioman.sim_busy_us": busy.get("pioman", 0.0) * us,
            "hardware.nic_tx_frames": total("nic.tx_frames"),
            "hardware.nic_busy_us": total("nic.busy_time") * us,
            "hardware.link_frames": total("link.frames"),
            "hardware.link_queue_delay_us":
                total("link.queue_delay", "sum") * us,
            "hardware.link_max_depth": max(
                (row["high"] for key, row in snapshot.items()
                 if key.startswith("link.queue_depth[")), default=0.0),
            "coll.collective_calls": total("coll.calls"),
            "coll.sim_time_us": total("coll.time", "sum") * us,
            "simulator.tracing.records": float(
                sum(sink.seen for sink in self.sinks)),
            "simulator.tracing.evicted": float(
                sum(getattr(sink, "evicted", 0) for sink in self.sinks)),
        }
