"""Timers, counters and spans taken at ``MPIRuntime``'s public boundary.

The benchmark measures from outside: nothing under ``src/`` knows it is
being measured.  :class:`Probe` wraps ``MPIRuntime.__init__`` and
``MPIRuntime.run`` (the one place every simulated MPI job passes through,
also inside ``run_kernel``, ``run_collbench`` and ``run_campaign``) and
records

* how many jobs were built, and the host seconds spent wiring and running;
* the engine's exact work counts (``sim.perf_stats()``) after each run;
* harness spans (name, start, end, parent, rep id), only when asked to;
* a trace sink per job, only when a ``trace_factory`` is set.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Probe:
    """Counters of the current rep; :meth:`reset` starts the next one."""

    def __init__(self) -> None:
        #: a list while pass A records spans; ``None`` keeps every other
        #: rep free of span bookkeeping
        self.spans: Optional[List[Dict[str, Any]]] = None
        self._open: List[int] = []
        self.rep_id = 0
        #: when set, jobs built without a trace get ``trace_factory()``
        self.trace_factory: Optional[Callable[[], Any]] = None
        self.scheduler = ""
        self.progress: set = set()
        self.reset()

    def reset(self) -> None:
        self.builds = 0
        self.build_s = 0.0
        self.run_s = 0.0
        self.events = 0
        self.batches = 0
        self.queue_peak = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A harness span around one public call (no-op when not tracing)."""
        if self.spans is None:
            yield
            return
        index = len(self.spans)
        self.spans.append({
            "id": index, "rep": self.rep_id, "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def spans_with_self_time(self) -> List[Dict[str, Any]]:
        """Closed spans, each with its duration minus its children's."""
        spans = [dict(s) for s in self.spans or [] if s["end"] is not None]
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            s["self_s"] = s["end"] - s["start"]
        for s in spans:
            parent = by_id.get(s["parent"])
            if parent is not None:
                parent["self_s"] -= s["end"] - s["start"]
        return spans

    @contextlib.contextmanager
    def installed(self) -> Iterator["Probe"]:
        """Wrap ``MPIRuntime`` for the duration of the ``with`` block."""
        from repro.runtime import MPIRuntime

        init, run = MPIRuntime.__init__, MPIRuntime.run
        init_signature = inspect.signature(init)
        probe = self

        def timed_init(rt, *args, **kwargs):
            if probe.trace_factory is not None and init_signature \
                    .bind(rt, *args, **kwargs).arguments.get("trace") is None:
                kwargs["trace"] = probe.trace_factory()
            with probe.span("MPIRuntime.__init__"):
                t0 = time.perf_counter()
                init(rt, *args, **kwargs)
                probe.build_s += time.perf_counter() - t0
            probe.builds += 1

        def timed_run(rt, *args, **kwargs):
            with probe.span("MPIRuntime.run"):
                t0 = time.perf_counter()
                try:
                    return run(rt, *args, **kwargs)
                finally:
                    probe.run_s += time.perf_counter() - t0
                    stats = rt.sim.perf_stats()
                    probe.events += int(stats["events_executed"])
                    probe.batches += int(stats["batches_executed"])
                    probe.queue_peak = max(probe.queue_peak,
                                           int(stats["queue_peak"]))
                    probe.scheduler = stats["scheduler"]
                    probe.progress.update(
                        type(engine).__name__
                        for engine in rt.piomans.values()
                        if engine is not None)

        MPIRuntime.__init__, MPIRuntime.run = timed_init, timed_run
        try:
            yield self
        finally:
            MPIRuntime.__init__, MPIRuntime.run = init, run
