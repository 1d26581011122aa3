"""Static and dynamic analyses of the reproduction itself.

Two sub-packages:

``static``
    The static checker: per-module passes over the syntax
    trees of ``src/repro`` enforcing the invariants every
    ``(seed, config)`` run depends on (audited clock and RNG funnels,
    no generator callbacks, no iteration-order hazards, ...).  Run it
    with ``repro check``.
``race``
    The simulated-concurrency race detector: a dynamic happens-before
    checker over the DES engine's event causality, fed by the
    runtime's shared containers.  Run it with ``repro race``.

Per-rail traffic of a traced run is kept by
:class:`~repro.observability.TraceMetrics` (``nic.tx_frames[rail]``,
``nic.tx_bytes[rail]``).
"""
