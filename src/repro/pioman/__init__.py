"""PIOMan: the I/O event manager providing background progress.

PIOMan centralizes the detection of communication events (network and
shared-memory) and runs protocol work on idle cores, in the background
of application computation.  Application waits become semaphore-style
blocks instead of busy-wait loops; the price is extra synchronization
(~450 ns intra-node, ~2 us on the network path, per the paper's Fig. 6),
the gain is communication/computation overlap (Fig. 7).

The 2009 threaded design is one point in a wider design space: the
pluggable progress-engine layer in :mod:`repro.pioman.engines` offers
``manual_poll`` and ``dedicated_thread`` alternatives (Zhou et al.
2024), selected per stack by ``StackSpec.progress``.  See
``docs/PROGRESS.md``.
"""

from repro.pioman.engines import (
    ENGINE_KINDS,
    DedicatedThreadEngine,
    ManualPollEngine,
    ProgressEngine,
    make_engine,
)
from repro.pioman.manager import PIOMan, PIOManParams

__all__ = [
    "ENGINE_KINDS",
    "DedicatedThreadEngine",
    "ManualPollEngine",
    "PIOMan",
    "PIOManParams",
    "ProgressEngine",
    "make_engine",
]
