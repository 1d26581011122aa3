"""Metrics registry fed from trace records.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — live in a :class:`MetricsRegistry` under
``name`` or ``name[label]`` keys.  :class:`TraceMetrics` subscribes to
a :class:`~repro.simulator.tracing.Trace` and maintains the standard
stack metrics (documented in ``docs/OBSERVABILITY.md``) as records
stream in, so one simulation pass yields both the raw event log and
the aggregate view.

Usage::

    trace = Trace()
    metrics = attach_metrics(trace)
    run_mpi(program, 2, spec, trace=trace)
    print(metrics.format_summary())
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simulator.tracing import Trace, TraceRecord


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A sampled level; remembers the high-water mark."""

    __slots__ = ("value", "high")

    def __init__(self) -> None:
        self.value = 0.0
        self.high = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high:
            self.high = value


class Histogram:
    """Streaming count/sum/min/max/mean of observed samples."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    @staticmethod
    def _key(name: str, label: Optional[str]) -> str:
        return f"{name}[{label}]" if label is not None else name

    def _get(self, cls, name: str, label: Optional[str]):
        key = self._key(name, label)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {key!r} is a {type(metric).__name__}, "
                            f"not a {cls.__name__}")
        return metric

    def counter(self, name: str, label: Optional[str] = None) -> Counter:
        return self._get(Counter, name, label)

    def gauge(self, name: str, label: Optional[str] = None) -> Gauge:
        return self._get(Gauge, name, label)

    def histogram(self, name: str, label: Optional[str] = None) -> Histogram:
        return self._get(Histogram, name, label)

    def labels_of(self, name: str) -> Tuple[str, ...]:
        """The labels under which ``name[...]`` instruments exist."""
        prefix = name + "["
        return tuple(k[len(prefix):-1] for k in self._metrics
                     if k.startswith(prefix) and k.endswith("]"))

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-data dump of every instrument (JSON-friendly)."""
        out: Dict[str, Dict[str, float]] = {}
        for key in sorted(self._metrics):
            m = self._metrics[key]
            if isinstance(m, Counter):
                out[key] = {"type": "counter", "value": m.value}
            elif isinstance(m, Gauge):
                out[key] = {"type": "gauge", "value": m.value, "high": m.high}
            else:
                out[key] = {"type": "histogram", "count": m.count,
                            "sum": m.total, "mean": m.mean,
                            "min": m.min if m.count else 0.0,
                            "max": m.max if m.count else 0.0}
        return out

    def format_table(self) -> str:
        """A terminal-friendly table of every instrument."""
        lines = [f"{'metric':<40} {'value':>14}  detail"]
        for key in sorted(self._metrics):
            m = self._metrics[key]
            if isinstance(m, Counter):
                lines.append(f"{key:<40} {_fmt(m.value):>14}")
            elif isinstance(m, Gauge):
                lines.append(f"{key:<40} {_fmt(m.value):>14}  "
                             f"high={_fmt(m.high)}")
            else:
                if m.count:
                    lines.append(f"{key:<40} {m.count:>14}  "
                                 f"mean={_fmt(m.mean)} min={_fmt(m.min)} "
                                 f"max={_fmt(m.max)}")
                else:
                    lines.append(f"{key:<40} {0:>14}")
        return "\n".join(lines)


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.3g}"


class _Instruments(dict):
    """``(name, label)`` -> one kind of instrument, made through the
    registry on first use, so a hit skips the key f-string and the
    type check."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable[[str, Optional[str]], Any]):
        super().__init__()
        self._make = make

    def __missing__(self, key: Tuple[str, Optional[str]]) -> Any:
        instrument = self[key] = self._make(*key)
        return instrument


class TraceMetrics:
    """The standard stack metrics, maintained live from a trace feed.

    Counters/gauges/histograms kept (see ``docs/OBSERVABILITY.md``):

    * ``link.frames[rail/link]`` / ``link.bytes[rail/link]`` — per-link
      traffic on routed fabrics
    * ``link.busy_time[rail/link]`` — serialization seconds per link
    * ``link.queue_delay[rail/link]`` — seconds spent waiting behind
      earlier frames on the link (histogram)
    * ``link.queue_depth[rail/link]`` — occupancy gauge; its high-water
      mark is the link's max contention
    * ``nic.tx_frames[rail]`` / ``nic.tx_bytes[rail]`` — traffic per rail
    * ``nic.busy_time[rail]`` — summed injection time (for busy fraction)
    * ``nmad.messages_sent`` / ``nmad.messages_received``
    * ``nmad.unexpected`` / ``nmad.unexpected_residency`` (seconds)
    * ``nmad.unexpected_depth`` — unexpected-queue depth gauge
    * ``strategy.window_depth`` — optimization-window depth gauge
    * ``strategy.pw_entries`` — aggregation factor histogram
    * ``strategy.pw_wire_bytes`` — wire size per packet wrapper
    * ``pioman.polls`` / ``pioman.ltasks`` / ``pioman.sem_waits``
    * ``pioman.sem_wait_time`` (seconds)
    * ``pioman.engine.polls[engine]`` / ``pioman.engine.ltasks[engine]``
      / ``pioman.engine.steals`` — alternative progress engines
    * ``nmad.reg_hits`` / ``nmad.reg_misses`` / ``nmad.reg_evicted_bytes``
      / ``nmad.reg_pinned_bytes`` — IB pin-down registration cache
    * ``mpich2.sends[path]`` / ``mpich2.recv_posts``
    * ``mpich2.anysource_scans`` / ``mpich2.anysource_hits``
    * ``mpich2.cell_copy_bytes`` / ``mpich2.shm_messages``
    * ``coll.calls[coll/algo]`` — per-rank dispatched-collective count
    * ``coll.time[coll/algo]`` — rank-local seconds inside the algorithm
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = _Instruments(self.registry.counter)
        self._gauges = _Instruments(self.registry.gauge)
        self._histograms = _Instruments(self.registry.histogram)
        self._sinks: List[Trace] = []

    # -- wiring ----------------------------------------------------------
    def attach(self, trace: Trace) -> "TraceMetrics":
        """Subscribe to the categories a metric is kept for; the others
        never reach :meth:`on_record`."""
        trace.subscribe(self.on_record, categories=self._HANDLERS.keys())
        self._sinks.append(trace)
        return self

    @property
    def t_first(self) -> Optional[float]:
        """Time of the first record the attached sinks admitted, of any
        category (None before any)."""
        firsts = [s.t_first for s in self._sinks if s.t_first is not None]
        return min(firsts) if firsts else None

    @property
    def t_last(self) -> float:
        """Latest time of a record the attached sinks admitted."""
        return max((s.t_last for s in self._sinks), default=0.0)

    # -- feed ------------------------------------------------------------
    def on_record(self, rec: TraceRecord) -> None:
        self._HANDLERS[rec.category](self, rec)

    def _on_link_xmit(self, rec: TraceRecord) -> None:
        data = rec.data
        link = f"{data.get('rail', '?')}/{data.get('link', '?')}"
        counters = self._counters
        counters["link.frames", link].inc()
        counters["link.bytes", link].inc(data.get("size", 0))
        counters["link.busy_time", link].inc(data.get("dur", 0.0))
        self._histograms["link.queue_delay", link].observe(
            data.get("queued", 0.0))
        self._gauges["link.queue_depth", link].set(data.get("depth", 0))

    def _on_nic_tx(self, rec: TraceRecord) -> None:
        data = rec.data
        rail = data["rail"]
        counters = self._counters
        counters["nic.tx_frames", rail].inc()
        counters["nic.tx_bytes", rail].inc(data["size"])
        counters["nic.busy_time", rail].inc(data.get("dur", 0.0))

    def _on_send_post(self, rec: TraceRecord) -> None:
        self._counters["nmad.messages_sent", None].inc()

    def _on_recv_done(self, rec: TraceRecord) -> None:
        self._counters["nmad.messages_received", None].inc()

    def _on_unexpected(self, rec: TraceRecord) -> None:
        self._counters["nmad.unexpected", None].inc()
        self._gauges["nmad.unexpected_depth", None].set(
            rec.data.get("depth", 0))

    def _on_unexpected_match(self, rec: TraceRecord) -> None:
        self._histograms["nmad.unexpected_residency", None].observe(
            rec.data.get("residency", 0.0))
        if rec.data.get("kind") == "eager":
            self._counters["nmad.messages_received", None].inc()

    def _on_push(self, rec: TraceRecord) -> None:
        self._gauges["strategy.window_depth", None].set(
            rec.data.get("pending", 0))

    def _on_pw_built(self, rec: TraceRecord) -> None:
        data = rec.data
        histograms = self._histograms
        histograms["strategy.pw_entries", None].observe(data.get("entries", 1))
        histograms["strategy.pw_wire_bytes", None].observe(
            data.get("wire_size", 0))

    def _on_poll(self, rec: TraceRecord) -> None:
        self._counters["pioman.polls", None].inc()

    def _on_ltask(self, rec: TraceRecord) -> None:
        self._counters["pioman.ltasks", None].inc()

    def _on_engine_poll(self, rec: TraceRecord) -> None:
        self._counters["pioman.engine.polls",
                       rec.data.get("engine", "?")].inc()

    def _on_engine_ltask(self, rec: TraceRecord) -> None:
        self._counters["pioman.engine.ltasks",
                       rec.data.get("engine", "?")].inc()

    def _on_engine_steal(self, rec: TraceRecord) -> None:
        self._counters["pioman.engine.steals", None].inc()

    def _on_reg_cache(self, rec: TraceRecord) -> None:
        data = rec.data
        hit = data.get("hit", False)
        self._counters["nmad.reg_hits" if hit else "nmad.reg_misses",
                       None].inc()
        evicted = data.get("evicted", 0)
        if evicted:
            self._counters["nmad.reg_evicted_bytes", None].inc(evicted)
        self._gauges["nmad.reg_pinned_bytes", None].set(data.get("pinned", 0))

    def _on_sem_wait(self, rec: TraceRecord) -> None:
        self._counters["pioman.sem_waits", None].inc()

    def _on_sem_wake(self, rec: TraceRecord) -> None:
        self._histograms["pioman.sem_wait_time", None].observe(
            rec.data.get("waited", 0.0))

    def _on_mpi_send(self, rec: TraceRecord) -> None:
        self._counters["mpich2.sends", rec.data.get("path", "?")].inc()

    def _on_mpi_recv(self, rec: TraceRecord) -> None:
        self._counters["mpich2.recv_posts", None].inc()

    def _on_as_scan(self, rec: TraceRecord) -> None:
        self._counters["mpich2.anysource_scans", None].inc()
        if rec.data.get("hit"):
            self._counters["mpich2.anysource_hits", None].inc()

    def _on_cell_copy(self, rec: TraceRecord) -> None:
        self._counters["mpich2.cell_copy_bytes", None].inc(
            rec.data.get("size", 0))

    def _on_shm_send(self, rec: TraceRecord) -> None:
        self._counters["mpich2.shm_messages", None].inc()

    # -- collective dispatch ----------------------------------------------
    def _on_coll_end(self, rec: TraceRecord) -> None:
        label = f"{rec.data.get('coll', '?')}/{rec.data.get('algo', '?')}"
        self._counters["coll.calls", label].inc()
        self._histograms["coll.time", label].observe(rec.data.get("dur", 0.0))

    _HANDLERS = {
        "link.xmit": _on_link_xmit,
        "nic.tx": _on_nic_tx,
        "nmad.send_post": _on_send_post,
        "nmad.eager_rx": _on_recv_done,
        "nmad.rdv_complete": _on_recv_done,
        "nmad.unexpected": _on_unexpected,
        "nmad.unexpected_match": _on_unexpected_match,
        "strategy.push": _on_push,
        "strategy.pw_built": _on_pw_built,
        "nmad.reg_cache": _on_reg_cache,
        "pioman.poll": _on_poll,
        "pioman.ltask": _on_ltask,
        "pioman.engine.poll": _on_engine_poll,
        "pioman.engine.ltask": _on_engine_ltask,
        "pioman.engine.steal": _on_engine_steal,
        "pioman.sem_wait": _on_sem_wait,
        "pioman.sem_wake": _on_sem_wake,
        "mpich2.send": _on_mpi_send,
        "mpich2.recv_post": _on_mpi_recv,
        "mpich2.anysource_scan": _on_as_scan,
        "mpich2.cell_copy": _on_cell_copy,
        "mpich2.shm_send": _on_shm_send,
        "coll.end": _on_coll_end,
    }

    # -- derived views ----------------------------------------------------
    def bytes_per_rail(self) -> Dict[str, float]:
        r = self.registry
        return {rail: r.counter("nic.tx_bytes", rail).value
                for rail in r.labels_of("nic.tx_bytes")}

    def nic_busy_fraction(self) -> Dict[str, float]:
        """Injection-busy share of each rail over the traced span."""
        span = (self.t_last - self.t_first) if self.t_first is not None else 0.0
        r = self.registry
        out = {}
        for rail in r.labels_of("nic.busy_time"):
            busy = r.counter("nic.busy_time", rail).value
            out[rail] = busy / span if span > 0 else 0.0
        return out

    def hottest_links(self, n: int = 5) -> Dict[str, Dict[str, float]]:
        """The ``n`` links with the most queueing (contention hot spots)."""
        r = self.registry
        rows = []
        for link in r.labels_of("link.queue_delay"):
            h = r.histogram("link.queue_delay", link)
            busy = r.counter("link.busy_time", link).value
            rows.append((h.total, busy, link))
        out: Dict[str, Dict[str, float]] = {}
        for total, _busy, link in sorted(rows, reverse=True)[:n]:
            out[link] = {
                "queue_delay": total,
                "busy_time": r.counter("link.busy_time", link).value,
                "max_depth": r.gauge("link.queue_depth", link).high,
            }
        return out

    def polls_per_message(self) -> float:
        msgs = self.registry.counter("nmad.messages_received").value
        polls = self.registry.counter("pioman.polls").value
        return polls / msgs if msgs else 0.0

    def derived(self) -> Dict[str, object]:
        return {
            "bytes_per_rail": self.bytes_per_rail(),
            "nic_busy_fraction": self.nic_busy_fraction(),
            "polls_per_message": self.polls_per_message(),
        }

    def format_summary(self) -> str:
        lines = [self.registry.format_table(), ""]
        derived = self.derived()
        lines.append("derived:")
        for rail, b in sorted(derived["bytes_per_rail"].items()):
            busy = derived["nic_busy_fraction"].get(rail, 0.0)
            lines.append(f"  rail {rail}: {int(b)} bytes on the wire, "
                         f"NIC busy {busy * 100:.1f}% of the traced span")
        lines.append(f"  polls per received message: "
                     f"{derived['polls_per_message']:.2f}")
        return "\n".join(lines)


def attach_metrics(trace: Trace,
                   registry: Optional[MetricsRegistry] = None) -> TraceMetrics:
    """Subscribe a fresh :class:`TraceMetrics` to ``trace``."""
    return TraceMetrics(registry).attach(trace)
