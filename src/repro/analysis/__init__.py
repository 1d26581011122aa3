"""Static and dynamic analyses of the reproduction itself.

Three sub-packages:

``traffic``
    Trace post-processing: per-rail traffic summaries and ASCII
    timelines (the original ``repro.analysis`` module).
``static``
    The static checker: a call graph and effect analysis over
    ``src/repro`` enforcing the invariants every ``(seed, config)`` run
    depends on (audited clock and RNG funnels, no blocking in
    callbacks, no iteration-order hazards, ...).  Run it with
    ``repro check``.
``race``
    The simulated-concurrency race detector: a dynamic happens-before
    checker over the DES engine's event causality.  Run it with
    ``repro race``.

The traffic API is re-exported here so existing imports
(``from repro.analysis import summarize_traffic``) keep working.
"""

from repro.analysis.traffic import (RailSummary, TrafficSummary,
                                    format_timeline, format_traffic,
                                    summarize_traffic)

__all__ = [
    "RailSummary",
    "TrafficSummary",
    "format_timeline",
    "format_traffic",
    "summarize_traffic",
]
