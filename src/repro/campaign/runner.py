"""The campaign runner: fan points out, merge deterministically.

``run_campaign`` resolves the requested experiment modules, collects
their points, satisfies as many as possible from the content-addressed
cache, executes the misses (serially or across a process pool), and
hands each module's ``{key: result}`` map to its ``merge`` to rebuild
exactly the dict the serial ``run()`` would have produced.

Determinism: results are keyed by point key and merged in point-list
order, never in completion order, so ``--workers 4`` and ``--workers
1`` (and a warm cached rerun) produce byte-identical merged data.

Per-point timing lands in a
:class:`~repro.observability.metrics.MetricsRegistry`:

* ``campaign.points`` / ``campaign.cache_hits`` / ``campaign.cache_misses``
* ``campaign.point_time[<module>]`` — histogram of executed-point wall
  seconds (cache hits observe the miss-time recorded at fill time under
  ``campaign.cached_point_time[<module>]``).
"""

from __future__ import annotations

import importlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.cache import ResultCache, campaign_key
from repro.campaign.executors import execute_point
from repro.campaign.points import Point
from repro.experiments import EXPERIMENTS
from repro.experiments.common import host_clock
from repro.observability.metrics import MetricsRegistry

#: every campaign-able module, in run_all order
ALL_MODULES: Tuple[str, ...] = tuple(EXPERIMENTS) + (
    "ext_is_datatypes",
    "ext_stencil_overlap",
    "ext_collectives",
    "ext_topology",
    "ext_progress",
)


def campaign_modules(names: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Resolve module short names -> imported experiment modules.

    Accepts any module exposing ``points``/``merge``; unknown names
    raise with the available list.
    """
    selected = list(names) if names else list(ALL_MODULES)
    out: Dict[str, Any] = {}
    for name in selected:
        if name not in ALL_MODULES:
            raise ValueError(f"unknown experiment module {name!r}; "
                             f"available: {', '.join(ALL_MODULES)}")
        mod = importlib.import_module(f"repro.experiments.{name}")
        if not hasattr(mod, "points") or not hasattr(mod, "merge"):
            raise ValueError(f"module {name!r} has no points()/merge() — "
                             "not campaign-able")
        out[name] = mod
    return out


@dataclass
class CampaignReport:
    """Everything one campaign run produced."""

    #: merged per-module result dicts, exactly as the serial ``run()``
    modules: Dict[str, Any]
    fast: bool
    workers: int
    points: int
    cache_hits: int
    cache_misses: int
    wall_seconds: float
    #: executed + cached wall seconds per module
    per_module: Dict[str, Dict[str, float]] = field(default_factory=dict)
    registry: Optional[MetricsRegistry] = None
    #: where per-point telemetry was appended (None without a cache)
    telemetry_path: Optional[str] = None

    @property
    def all_cached(self) -> bool:
        return self.points > 0 and self.cache_hits == self.points

    def stats(self) -> Dict[str, Any]:
        return {
            "fast": self.fast,
            "workers": self.workers,
            "points": self.points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_seconds": self.wall_seconds,
            "per_module": self.per_module,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean dump (dataclasses flattened, tuples listified)."""
        from repro.campaign.cache import _as_plain

        return {"modules": _as_plain(self.modules), "stats": self.stats()}

    def format_summary(self) -> str:
        lines = [
            f"campaign: {self.points} points across "
            f"{len(self.modules)} module(s), workers={self.workers}",
            f"  cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
            + (" [fully cached]" if self.all_cached else ""),
            f"  wall time: {self.wall_seconds:.1f}s",
        ]
        for name in self.modules:
            pm = self.per_module.get(name, {})
            lines.append(
                f"  {name:24s} {int(pm.get('points', 0)):4d} points, "
                f"{pm.get('executed_seconds', 0.0):7.1f}s executed, "
                f"{int(pm.get('hits', 0)):4d} cached")
        return "\n".join(lines)


def _worker(point_config: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
    """Top-level (picklable) worker: execute one point, time it."""
    t0 = host_clock()
    result = execute_point(point_config)
    return result, host_clock() - t0


def run_campaign(modules: Optional[Sequence[str]] = None,
                 fast: bool = False,
                 workers: int = 1,
                 cache: Optional[ResultCache] = None,
                 force: bool = False,
                 registry: Optional[MetricsRegistry] = None) -> CampaignReport:
    """Run a campaign over ``modules`` (default: all of run_all).

    Parameters
    ----------
    workers:
        Process-pool width.  ``1`` executes in-process (no pool), which
        is also the reference for the determinism guarantee.
    cache:
        A :class:`ResultCache`, or None to disable memoization.
    force:
        Recompute every point even on a cache hit (results are still
        written back).
    registry:
        Optional metrics registry to feed; one is created if omitted.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t_start = host_clock()
    mods = campaign_modules(modules)
    registry = registry if registry is not None else MetricsRegistry()

    plan: List[Tuple[str, Point, str]] = []   # (module, point, cache key)
    results: Dict[str, Dict[str, Any]] = {name: {} for name in mods}
    per_module: Dict[str, Dict[str, float]] = {
        name: {"points": 0, "hits": 0, "executed_seconds": 0.0}
        for name in mods}
    hits = misses = 0

    pending: List[Tuple[str, Point, str]] = []
    for name, mod in mods.items():
        for point in mod.points(fast=fast):
            key = campaign_key(point.config()) if cache is not None else ""
            plan.append((name, point, key))
            per_module[name]["points"] += 1
            cached = cache.get(key) if (cache is not None and not force) \
                else None
            if cached is not None:
                result, elapsed = cached
                results[name][point.key] = result
                per_module[name]["hits"] += 1
                hits += 1
                registry.counter("campaign.cache_hits").inc()
                registry.histogram("campaign.cached_point_time",
                                   name).observe(elapsed)
            else:
                pending.append((name, point, key))

    if pending:
        if workers == 1:
            timed = [_worker(point.config()) for _name, point, _k in pending]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_worker, point.config())
                           for _name, point, _k in pending]
                # collected in submission order: deterministic merge
                timed = [future.result() for future in futures]
        for (name, point, key), (result, elapsed) in zip(pending, timed):
            results[name][point.key] = result
            per_module[name]["executed_seconds"] += elapsed
            misses += 1
            registry.counter("campaign.cache_misses").inc()
            registry.histogram("campaign.point_time", name).observe(elapsed)
            if cache is not None:
                cache.put(key, point.config(), result, elapsed)

    registry.counter("campaign.points").inc(len(plan))
    merged = {name: mod.merge(results[name], fast=fast)
              for name, mod in mods.items()}
    wall = host_clock() - t_start
    telemetry_path = None
    if cache is not None:
        point_rows = []
        pending_elapsed = {(name, point.key): elapsed
                           for (name, point, _k), (_r, elapsed)
                           in zip(pending, timed)} if pending else {}
        for name, point, key in plan:
            hit = (name, point.key) not in pending_elapsed
            point_rows.append({
                "module": name, "point": str(point.key), "key": key,
                "cached": hit,
                "elapsed": (0.0 if hit
                            else pending_elapsed[(name, point.key)]),
            })
        telemetry_path = _append_telemetry(
            cache, run_started=t_start, wall_seconds=wall, fast=fast,
            workers=workers, hits=hits, misses=misses, points=point_rows)
    return CampaignReport(
        modules=merged, fast=fast, workers=workers, points=len(plan),
        cache_hits=hits, cache_misses=misses,
        wall_seconds=wall,
        per_module=per_module, registry=registry,
        telemetry_path=telemetry_path)


def _append_telemetry(cache: ResultCache, run_started: float,
                      wall_seconds: float, fast: bool, workers: int,
                      hits: int, misses: int,
                      points: List[Dict[str, Any]]) -> str:
    """Append one run's telemetry next to the content-addressed store.

    One JSON line per run: a summary plus the per-point rows, so
    ``repro perf`` can render the wall-time/hit-rate trajectory across
    campaign runs without touching the result store itself.  The line
    goes out in one unbuffered ``write``; if an earlier append was torn
    (the file does not end in a newline), it starts on a fresh line, so
    only the torn record is lost, never this one.
    """
    path = cache.telemetry_path
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    entry = {
        "run_started": run_started,
        "wall_seconds": wall_seconds,
        "fast": fast,
        "workers": workers,
        "points": len(points),
        "cache_hits": hits,
        "cache_misses": misses,
        "executed_seconds": sum(p["elapsed"] for p in points),
        "per_point": points,
    }
    line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "a+b", buffering=0) as fh:
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)
    return path
