"""The audited host wall clock.

``repro check`` (RPC002) bans ``time.time`` and friends
everywhere except this module: every host-time read in the codebase
funnels through :func:`host_clock`, so nothing host-dependent can leak
into simulated results.  Legitimate consumers are *telemetry only* —
engine events/sec accounting, campaign progress reporting — never
simulation logic.
"""

from __future__ import annotations

import time


def host_clock() -> float:
    """Host wall-clock seconds, for telemetry and progress reporting.

    Never feed this value into a simulation: simulated time advances
    only through the event heap.
    """
    return time.time()
