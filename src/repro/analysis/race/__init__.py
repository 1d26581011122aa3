"""Simulated-concurrency race detection ("TSan for the DES").

The engine interleaves logical execution contexts — application rank
threads, PIOMan ltasks, per-rail NIC callbacks — at
simulated-time granularity.  A run being deterministic does not make it
*correct*: two contexts touching the same queue without a
happens-before edge is a real bug that a different event ordering (new
timing parameters, added jitter) will expose.  The detector builds
vector clocks from engine causality (schedule edges, event completion,
semaphore/channel handoffs, virtual lock regions) and reports
conflicting accesses that no edge orders.  The accesses come from the
runtime's shared containers, swapped for recording ones by
:func:`~repro.analysis.race.watch.watch_runtime`.

See :mod:`repro.analysis.race.detector` for the model and
``docs/ANALYSIS.md`` for the rules of engagement and its limits.
"""

from repro.analysis.race.detector import (
    Access,
    ExecContext,
    RaceDetector,
    RaceFinding,
    RaceReport,
)
from repro.analysis.race.harness import run_race, run_racy_demo
from repro.analysis.race.watch import watch_runtime

__all__ = [
    "Access",
    "ExecContext",
    "RaceDetector",
    "RaceFinding",
    "RaceReport",
    "run_race",
    "run_racy_demo",
    "watch_runtime",
]
