"""Nothing simulated moved: traced ping-pongs against committed fingerprints.

Every ``repro stacks`` preset runs a short traced ping-pong at each of
five sizes (both sides of every eager/rendezvous threshold), once with
a known source and once with ``MPI_ANY_SOURCE`` on the receiver, with
the two ranks on two nodes (the network path) and on one node (shared
memory).  Each run is reduced to three values:

* ``trace``: :func:`repro.faults.determinism.trace_fingerprint` over
  the whole record stream (times, categories, fields, in order);
* ``events``: ``sim.events_executed``, the queue dispatches;
* ``result``: a SHA-256 over the ranks' finish times and return values.

The committed values live in ``fingerprints.json`` next to this file.
A change that claims "bit-identical" edits no line of it; a change that
moves simulated behaviour regenerates it and says why.  There is no
update flag: on a mismatch the failure names the first divergent
scenario and prints the measured document, ready to paste.

The progress engine is pinned to the reference one (``REPRO_PROGRESS``
is cleared), so the fingerprints do not depend on the environment.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, Tuple

import pytest

from repro import config
from repro.cli import _STACKS
from repro.faults.determinism import fresh_id_space, trace_fingerprint
from repro.pioman.engines import PROGRESS_ENV
from repro.runtime import MPIRuntime
from repro.simulator import Trace
from repro.workloads.netpipe import pingpong

_FILE = os.path.join(os.path.dirname(__file__), "fingerprints.json")
KiB, MiB = 1024, 1024 * 1024
_SIZES = (4, 256, 8 * KiB, 64 * KiB, 1 * MiB)
_SOURCES = ("known", "any")
#: placement -> ranks per node
_PLACEMENTS = {"inter": 1, "intra": 2}

Scenario = Tuple[str, str, int, str, str]


def scenarios() -> Iterator[Scenario]:
    """``(name, preset, size, source, placement)``, in a fixed order."""
    for preset in sorted(_STACKS):
        for size in _SIZES:
            for source in _SOURCES:
                for place in _PLACEMENTS:
                    yield (f"{preset}/{size}/{source}/{place}", preset, size,
                           source, place)


def run_scenario(preset: str, size: int, source: str,
                 place: str) -> Dict[str, object]:
    """One traced ping-pong, reduced to its fingerprint row."""
    fresh_id_space()     # frame/pw/rdv ids are process-global counters
    trace = Trace()
    runtime = MPIRuntime(2, _STACKS[preset](), cluster=config.xeon_pair(),
                         ranks_per_node=_PLACEMENTS[place], trace=trace)
    result = runtime.run(pingpong(size, reps=2, warmup=1,
                                  anysource=source == "any"))
    outcome = repr((result.rank_times, result.rank_results))
    return {"trace": trace_fingerprint(trace),
            "events": runtime.sim.events_executed,
            "result": hashlib.sha256(outcome.encode()).hexdigest()}


def measure_all() -> Dict[str, Dict[str, object]]:
    """The whole document ``fingerprints.json`` should hold."""
    saved = os.environ.pop(PROGRESS_ENV, None)
    try:
        return {name: run_scenario(*scenario)
                for name, *scenario in scenarios()}
    finally:
        if saved is not None:
            os.environ[PROGRESS_ENV] = saved


def test_every_scenario_matches_its_fingerprint() -> None:
    measured = measure_all()
    with open(_FILE) as fh:
        pinned = json.load(fh)
    for name in measured:
        if measured[name] != pinned.get(name):
            pytest.fail(
                f"first divergent scenario: {name}\n"
                f"  pinned:   {pinned.get(name)}\n"
                f"  measured: {measured[name]}\n"
                f"if the change is intended, replace "
                f"{os.path.basename(_FILE)} with:\n"
                + json.dumps(measured, indent=1, sort_keys=True))
    assert sorted(pinned) == sorted(measured), "scenarios were removed"
