"""Observability: trace taxonomy, metrics, Perfetto export, breakdowns.

The measurement layer of the reproduction (see ``docs/OBSERVABILITY.md``):

* :mod:`~repro.observability.taxonomy` — the documented
  ``<layer>.<event>`` trace-category taxonomy;
* :mod:`~repro.observability.metrics` — a counters/gauges/histograms
  registry fed live from trace records;
* :mod:`~repro.observability.perfetto` — Chrome trace-event / Perfetto
  JSON export;
* :mod:`~repro.observability.breakdown` — per-message critical-path
  latency attribution across the stack layers;
* :mod:`~repro.observability.profile` — hierarchical sim-time span
  profiler (inclusive/exclusive attribution, folded-stack flame
  graphs, enriched Perfetto spans);
* :mod:`~repro.observability.engineperf` — engine/process perf
  telemetry (events/sec, heap peak, wall time, peak RSS) into the
  metrics registry;
* :mod:`~repro.observability.determinism` — id-space resets and trace
  fingerprints for byte-identical-replay regression tests.
"""

from repro.observability.breakdown import (
    BreakdownSummary,
    MessageLife,
    format_breakdown,
    message_lives,
    summarize_breakdown,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceMetrics,
    attach_metrics,
)
from repro.observability.determinism import (
    canonical_records,
    fresh_id_space,
    trace_fingerprint,
)
from repro.observability.engineperf import (
    format_engine_stats,
    peak_rss_kib,
    record_engine_metrics,
)
from repro.observability.perfetto import to_perfetto, write_perfetto
from repro.observability.profile import Span, SpanProfiler, profile_trace
from repro.observability.taxonomy import (
    ALL_LAYERS,
    CATEGORIES,
    COLL_LAYERS,
    LAYERS,
    LINK_LAYERS,
    entity_of,
    layer_of,
)

__all__ = [
    "BreakdownSummary",
    "MessageLife",
    "format_breakdown",
    "message_lives",
    "summarize_breakdown",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceMetrics",
    "attach_metrics",
    "to_perfetto",
    "write_perfetto",
    "Span",
    "SpanProfiler",
    "profile_trace",
    "format_engine_stats",
    "peak_rss_kib",
    "record_engine_metrics",
    "canonical_records",
    "fresh_id_space",
    "trace_fingerprint",
    "ALL_LAYERS",
    "CATEGORIES",
    "COLL_LAYERS",
    "LAYERS",
    "LINK_LAYERS",
    "entity_of",
    "layer_of",
]
