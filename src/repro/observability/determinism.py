"""Determinism tooling: fresh id spaces and trace fingerprints.

The simulator itself is fully deterministic, but three module-level id
counters (frame ids, packet-wrapper ids, rendezvous ids) are process
global, so two runs *in the same process* see different absolute ids in
their traces.  :func:`fresh_id_space` rewinds them, making repeated
runs byte-comparable; :func:`trace_fingerprint` reduces a trace to a
stable digest for exact-equality regression tests (see
``tests/observability/test_determinism.py`` and
``tests/integration/test_fingerprints.py``).
"""

from __future__ import annotations

import hashlib

from repro.hardware import nic as _nic
from repro.nmad import packet as _packet
from repro.simulator.tracing import Trace


def fresh_id_space() -> None:
    """Rewind every global id counter to zero.

    Only for determinism comparisons and tooling: after this, ids are
    no longer unique against objects created before the call.
    """
    _nic.reset_frame_ids()
    _packet.reset_ids()


def canonical_records(trace: Trace):
    """Stable one-line serializations of every trace record, in order."""
    for rec in trace.records:
        data = ",".join(f"{k}={rec.data[k]!r}" for k in sorted(rec.data))
        yield f"{rec.time!r} {rec.category} {data}"


def trace_fingerprint(trace: Trace) -> str:
    """SHA-256 over the canonical serialization of ``trace``.

    Two runs with the same configuration, seed, and a fresh id space
    produce byte-identical canonical records, hence equal fingerprints.
    """
    h = hashlib.sha256()
    for line in canonical_records(trace):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
