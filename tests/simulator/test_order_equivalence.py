"""One dispatch order, whatever is attached to the engine.

A timer runs its waiters inside its own queue entry, so the order of
same-timestamp entries is the sharpest thing that could now depend on
*how* a simulation is driven.  It must not: a bare run, a traced run, a
run chopped into ``run(until=)`` windows and single ``step()`` calls,
and a run under the race detector have to dispatch identically.

Two zoom levels:

* a Hypothesis generator of tie-heavy programs (equal-delay timers and
  bare ``float`` delays mixed, zero-delay posts, cancels, ``any_of`` /
  ``all_of``, a semaphore) whose every action is logged with its
  timestamp;
* the traced stack presets, compared record by record with
  :meth:`Trace.first_divergence`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.analysis.race import RaceDetector
from repro.faults.determinism import fresh_id_space
from repro.runtime import MPIRuntime
from repro.simulator import Semaphore, Simulator, Trace
from repro.workloads.netpipe import pingpong

#: how a run is driven: (name, traced, sliced, monitored)
_DRIVES = [("bare", False, False, False), ("traced", True, False, False),
           ("sliced", True, True, False), ("monitored", True, False, True)]


def _slice_runs(sim: Simulator, window: float) -> None:
    """Make ``sim.run()`` alternate single steps and ``until`` windows."""
    whole_run = sim.run

    def run(until: Optional[float] = None,
            detect_deadlock: bool = False) -> float:
        assert until is None
        while sim.step():
            whole_run(until=sim.now + window)
        return whole_run(detect_deadlock=detect_deadlock)

    sim.run = run   # type: ignore[method-assign]


def _attach(sim: Simulator, sliced: bool, monitored: bool,
            window: float) -> None:
    if monitored:
        RaceDetector().install(sim)
    if sliced:
        _slice_runs(sim, window)


# ----------------------------------------------------------------------
# tie-heavy toy programs
# ----------------------------------------------------------------------
_UNIT = 1e-6
#: delays in units: few distinct values, zero included, so ties abound
_DELAY = st.integers(min_value=0, max_value=2)

_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("nap"), _DELAY),
    st.tuples(st.just("nap"), _DELAY),
    st.tuples(st.just("post"), _DELAY),
    st.tuples(st.just("cancel"), st.none()),
    st.tuples(st.just("any"), st.tuples(_DELAY, _DELAY)),
    st.tuples(st.just("all"), st.tuples(_DELAY, _DELAY)),
    st.tuples(st.just("sem"), _DELAY),
    st.tuples(st.just("fire"), st.integers(0, 1)),
    st.tuples(st.just("await"), st.tuples(st.integers(0, 1), _DELAY)),
)
_PROGRAMS = st.lists(st.lists(_OP, min_size=1, max_size=8),
                     min_size=2, max_size=5)


def _run_toy(programs, traced: bool, sliced: bool, monitored: bool,
             naps_as_timers: bool = False
             ) -> Tuple[List[Any], Optional[Trace], int]:
    trace = Trace() if traced else None
    sim = Simulator(trace=trace)
    _attach(sim, sliced, monitored, window=1.5 * _UNIT)
    log: List[Any] = []
    sem = Semaphore(sim, 1)
    shared = [sim.event(), sim.event()]

    def note(*what: Any) -> None:
        log.append((sim.now,) + what)
        if sim.tracing:
            sim.record("toy.op", what=what)

    def charge(units: int) -> Any:
        """A CPU charge: a bare delay, or the timer it replaced."""
        if naps_as_timers:
            return sim.timeout(units * _UNIT)
        return units * _UNIT

    def task(tid: int, ops):
        handles = []
        for i, (op, arg) in enumerate(ops):
            if op == "sleep":
                yield sim.timeout(arg * _UNIT)
            elif op == "nap":
                yield charge(arg)
            elif op == "post":
                handles.append(
                    sim.schedule(arg * _UNIT, note, "posted", tid, i))
            elif op == "cancel":
                if handles:
                    handles.pop().cancel()
            elif op == "any":
                yield sim.any_of([sim.timeout(d * _UNIT, value=d)
                                  for d in arg])
            elif op == "all":
                yield sim.all_of([sim.timeout(d * _UNIT) for d in arg])
            elif op == "sem":
                yield sem.acquire()
                note("held", tid, i)
                yield charge(arg)
                sem.release()
            elif op == "fire":
                if not shared[arg].triggered:
                    shared[arg].succeed()
            else:   # await a shared event, but never forever
                which, delay = arg
                yield sim.any_of([shared[which],
                                  sim.timeout(delay * _UNIT)])
            note(op, tid, i)

    for tid, ops in enumerate(programs):
        sim.spawn(task(tid, ops), name=f"toy{tid}")
    sim.run()
    return log, trace, sim.events_executed


@settings(max_examples=60, deadline=None)
@given(programs=_PROGRAMS)
def test_toy_programs_dispatch_identically_however_driven(programs) -> None:
    ref_log, _, ref_events = _run_toy(programs, False, False, False)
    ref_trace = None
    for name, traced, sliced, monitored in _DRIVES:
        log, trace, events = _run_toy(programs, traced, sliced, monitored)
        assert log == ref_log, f"{name} reordered a dispatch"
        assert events == ref_events, f"{name} dispatch count moved"
        if trace is not None:
            if ref_trace is None:
                ref_trace = trace
            assert ref_trace.first_divergence(trace) is None, \
                f"{name} trace diverges"


@settings(max_examples=40, deadline=None)
@given(programs=_PROGRAMS)
def test_a_bare_delay_takes_the_timers_slot(programs) -> None:
    """``yield d`` dispatches exactly where ``yield sim.timeout(d)`` did."""
    assert (_run_toy(programs, False, False, False)
            == _run_toy(programs, False, False, False, naps_as_timers=True))


# ----------------------------------------------------------------------
# the traced stack presets
# ----------------------------------------------------------------------
_PRESETS: dict = {
    "mpich2_nmad": config.mpich2_nmad,
    "mpich2_nmad_pioman": lambda: config.mpich2_nmad_pioman(
        progress="pioman"),
    "mpich2_nmad_reliable": config.mpich2_nmad_reliable,
}


def _run_preset(make_spec: Callable, size: int, traced: bool,
                sliced: bool, monitored: bool):
    fresh_id_space()     # frame/pw/rdv ids are process-global counters
    trace = Trace() if traced else None
    runtime = MPIRuntime(2, make_spec(), cluster=config.xeon_pair(),
                         trace=trace)
    _attach(runtime.sim, sliced, monitored, window=0.7e-6)
    result = runtime.run(pingpong(size, reps=3, warmup=1))
    return result, trace, runtime.sim.events_executed


@pytest.mark.parametrize("size", [256, 65536])
@pytest.mark.parametrize("preset", sorted(_PRESETS))
def test_presets_dispatch_identically_however_driven(preset: str,
                                                     size: int) -> None:
    make_spec = _PRESETS[preset]
    ref, _, ref_events = _run_preset(make_spec, size, False, False, False)
    ref_trace = None
    for name, traced, sliced, monitored in _DRIVES:
        result, trace, events = _run_preset(make_spec, size, traced,
                                            sliced, monitored)
        where = f"{preset}/{size}/{name}"
        assert result.rank_times == ref.rank_times, where
        assert result.rank_results == ref.rank_results, where
        assert events == ref_events, where
        if trace is not None:
            if ref_trace is None:
                ref_trace = trace
            div = ref_trace.first_divergence(trace)
            assert div is None, (
                f"{where}: trace diverges at record {div}: "
                f"{list(ref_trace)[div:div + 1]} vs "
                f"{list(trace)[div:div + 1]}")
