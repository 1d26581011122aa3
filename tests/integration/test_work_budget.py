"""Exact work per message: the host-side budget of the stack.

The paper argues for the CH3 bypass by counting what each crossed layer
costs.  This test holds the simulator to the same standard with counts,
not timings: for each case it pins, per op, the *marginal* (long run
minus short run, so start-up and teardown cancel)

* queue dispatches (``sim.events_executed``);
* Python calls per layer: cProfile ``ncalls`` folded by
  ``src/repro/<package>/``, everything else (builtins, stdlib) as
  ``python``;
* ``nmad.pw_built`` / ``nmad.entries_per_pw`` (``strategy.pw_entries``),
  ``pioman.polls`` and ``hardware.nic_tx_frames``, from a second run
  under a ``Trace`` with ``attach_metrics``.

The ``_ring`` case is the eager case with tracing left on: its profiled
run goes under ``RingTrace(1024)`` + ``attach_metrics``, so its call
rows price the traced path (``simulator`` and ``observability``
included), and its ``trace.records`` row pins the records admitted per
message.

Tolerance is 0.  The committed values live in ``work_budget.json`` next
to this file; a change that moves a count edits that file in the same
diff and says why.  On a mismatch the failure message prints the
measured document, ready to paste.  Call counts depend on the CPython
minor version, so call rows are asserted only on the minor the file
records; every other row is asserted everywhere.

DESIGN.md §7 "dispatches per message" lists where each dispatch comes
from.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, Tuple

import pytest

import repro
from repro import config
from repro.hardware.netgraph import parse_topology
from repro.observability import MetricsRegistry, attach_metrics
from repro.runtime import MPIRuntime
from repro.simulator import RingTrace, Trace
from repro.workloads.netpipe import pingpong

KiB, MiB = 1024, 1024 * 1024
_ROUNDS = (6, 16)   # short run, long run
_BUDGET = os.path.join(os.path.dirname(__file__), "work_budget.json")
_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_MINOR = "%d.%d" % sys.version_info[:2]


def _pingpong(size: int) -> Callable:
    """Round trips of ``size`` bytes: two messages per round."""
    return lambda rounds: pingpong(size, reps=rounds, warmup=0)


def _barriers(rounds: int) -> Callable:
    def program(comm):
        for _ in range(rounds):
            yield from comm.barrier()
    return program


_BURST, _BURST_SIZE = 64, 2 * KiB   # above the inline-pump threshold


def _bursts(rounds: int) -> Callable:
    """A 16 KiB blocker that keeps the NIC busy, then 64 small sends."""
    def program(comm):
        got = []
        for _ in range(rounds):
            if comm.rank == 0:
                blocker = yield from comm.isend(1, tag="blk", size=16 * KiB)
                reqs = []
                for i in range(_BURST):
                    req = yield from comm.isend(1, tag="s", size=_BURST_SIZE,
                                                data=i)
                    reqs.append(req)
                yield from comm.wait(blocker)
                yield from comm.waitall(reqs)
            else:
                yield from comm.recv(src=0, tag="blk")
                got = []
                for _ in range(_BURST):
                    msg = yield from comm.recv(src=0, tag="s")
                    got.append(msg.data)
        return got
    return program


def _burst_case(strategy: str) -> Tuple:
    # a round is already 65 messages: fewer rounds give the same marginal
    return (2, lambda: config.mpich2_nmad().with_(strategy=strategy),
            config.xeon_pair, _bursts, 1, (2, 4))


#: case -> (nprocs, make_spec, make_cluster, make_program, ops per round,
#:          rounds in the short and the long run)
_CASES: Dict[str, Tuple] = {
    # one eager message: 7 CPU/NIC timers, 1 wire delivery, 2 wait wake-ups
    "eager_256B_ib": (2, config.mpich2_nmad, config.xeon_pair,
                      _pingpong(256), 2, _ROUNDS),
    # RTS + CTS + data: three frames instead of one
    "rdv_1MiB_ib": (2, config.mpich2_nmad, config.xeon_pair,
                    _pingpong(1 * MiB), 2, _ROUNDS),
    # the eager case under PIOMan: every arrival an ltask on a Marcel core,
    # every wait a semaphore wait, the Fig. 6b sync charged per side
    "eager_256B_ib_pioman": (
        2, lambda: config.mpich2_nmad_pioman(progress="pioman"),
        config.xeon_pair, _pingpong(256), 2, _ROUNDS),
    # two ranks on one node: the Nemesis shared-memory queues, no NIC
    "eager_256B_shm": (2, config.mpich2_nmad,
                       lambda: config.ClusterSpec(n_nodes=1),
                       _pingpong(256), 2, _ROUNDS),
    # the unmodified network-module path: queue-cell copies both ways
    "eager_256B_netmod": (2, config.mpich2_nmad_netmod, config.xeon_pair,
                          _pingpong(256), 2, _ROUNDS),
    # a native comparator: BaseStack.wait's active polling, no nmad
    "eager_256B_mvapich2": (2, config.mvapich2, config.xeon_pair,
                            _pingpong(256), 2, _ROUNDS),
    "eager_256B_shm_mvapich2": (2, config.mvapich2,
                                lambda: config.grid5000(1),
                                _pingpong(256), 2, _ROUNDS),
    # data striped over two rails, every handler an ltask on a Marcel core
    "rdv_1MiB_ib_mx_pioman": (
        2, lambda: config.mpich2_nmad_pioman(rails=("ib", "mx"),
                                             progress="pioman"),
        config.xeon_pair, _pingpong(1 * MiB), 2, _ROUNDS),
    # dissemination barrier: 2 rounds x 4 ranks = 8 eager messages
    "barrier_p4": (4, config.mpich2_nmad, lambda: config.grid5000(4),
                   _barriers, 1, _ROUNDS),
    # the same barrier on a routed 2x2 torus: every frame crosses links
    "barrier_p4_torus2d": (
        4, config.mpich2_nmad,
        lambda: replace(config.grid5000(4),
                        topology=parse_topology("torus2d:2x2")),
        _barriers, 1, _ROUNDS),
    # one op = one burst; aggregation coalesces it into a few wrappers
    "burst_64x2KiB_ib_default": _burst_case("default"),
    "burst_64x2KiB_ib_aggreg": _burst_case("aggreg"),
    # the eager case with tracing left on: RingTrace(1024) + live metrics
    "eager_256B_ib_ring": (2, config.mpich2_nmad, config.xeon_pair,
                           _pingpong(256), 2, _ROUNDS),
}

#: cases whose profiled run is traced, and pinned with a trace.records row
_RING_TRACED = frozenset({"eager_256B_ib_ring"})


def _layer(path: str) -> str:
    """``src/repro/<package>/...`` -> ``<package>``; the rank programs
    above -> ``workloads``; builtins, stdlib and the rest -> ``python``."""
    if path == __file__:
        return "workloads"
    if not path.startswith(_PACKAGE):
        return "python"
    return path[len(_PACKAGE):].split(os.sep)[0].removesuffix(".py")


def _runtime(case: str, trace: Any = None) -> MPIRuntime:
    nprocs, make_spec, make_cluster = _CASES[case][:3]
    return MPIRuntime(nprocs, make_spec(), cluster=make_cluster(),
                      trace=trace)


def _profiled(case: str, rounds: int) -> Tuple[int, Dict[str, int], int]:
    """Dispatches, calls per layer and trace records admitted."""
    trace = None
    if case in _RING_TRACED:
        trace = RingTrace(1024)
        attach_metrics(trace)
    runtime = _runtime(case, trace)
    program = _CASES[case][3](rounds)
    profiler = cProfile.Profile()
    # a cyclic collection inside the window would finalize generators
    # left over from earlier code and count their ``finally`` blocks
    gc.collect()
    gc.disable()
    try:
        profiler.runcall(runtime.run, program)
    finally:
        gc.enable()
    # per code object: pstats would merge the dataclass ``__init__``s,
    # which all read ``<string>:2``, keeping whichever comes last
    calls: Dict[str, int] = {}
    for entry in profiler.getstats():
        path = getattr(entry.code, "co_filename", "")   # builtins: a str
        calls[_layer(path)] = calls.get(_layer(path), 0) + entry.callcount
    return (runtime.sim.events_executed, calls,
            trace.seen if trace is not None else 0)


def _traced(case: str, rounds: int) -> Dict[str, float]:
    trace, registry = Trace(), MetricsRegistry()
    attach_metrics(trace, registry)
    _runtime(case, trace).run(_CASES[case][3](rounds))
    snapshot = registry.snapshot()

    def total(name: str, field: str = "value") -> float:
        """A metric summed over its labels (``name``, ``name[...]``)."""
        return sum(row[field] for key, row in snapshot.items()
                   if key == name or key.startswith(name + "["))

    return {"pw_entries": total("strategy.pw_entries", "sum"),
            "nmad.pw_built": total("strategy.pw_entries", "count"),
            "pioman.polls": total("pioman.polls"),
            "hardware.nic_tx_frames": total("nic.tx_frames")}


def measure(case: str) -> Dict[str, Any]:
    """The marginal work of one op of ``case``, every row."""
    ops_per_round, rounds = _CASES[case][4:]
    ops = (rounds[1] - rounds[0]) * ops_per_round
    _runtime(case).run(_CASES[case][3](1))   # first-use imports and caches
    (short_d, short_c, short_r), (long_d, long_c, long_r) = (
        _profiled(case, r) for r in rounds)
    short_t, long_t = (_traced(case, r) for r in rounds)
    delta = {k: long_t[k] - short_t[k] for k in long_t}
    pw_built = delta.pop("nmad.pw_built")
    pw_entries = delta.pop("pw_entries")
    counters = {"nmad.pw_built": pw_built / ops,
                "nmad.entries_per_pw": (pw_entries / pw_built
                                        if pw_built else 0.0)}
    counters.update({k: v / ops for k, v in delta.items()})
    if case in _RING_TRACED:
        counters["trace.records"] = (long_r - short_r) / ops
    calls = {layer: (long_c.get(layer, 0) - short_c.get(layer, 0)) / ops
             for layer in sorted(set(short_c) | set(long_c))}
    return {"dispatches": (long_d - short_d) / ops,
            "calls": {k: v for k, v in calls.items() if v},
            **counters}


def measure_all() -> Dict[str, Any]:
    """The whole document ``work_budget.json`` should hold."""
    return {"python": _MINOR,
            "cases": {case: measure(case) for case in sorted(_CASES)}}


@pytest.fixture(scope="module")
def measured() -> Dict[str, Any]:
    return measure_all()


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    with open(_BUDGET) as fh:
        return json.load(fh)


def _paste(measured: Dict[str, Any]) -> str:
    return (f"measured work differs from {os.path.basename(_BUDGET)}; "
            "if the change is intended, replace the file with:\n"
            + json.dumps(measured, indent=2, sort_keys=True))


def test_cases_are_pinned(measured, pinned) -> None:
    assert sorted(pinned["cases"]) == sorted(_CASES), _paste(measured)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_work_per_op_is_pinned(case: str, measured, pinned) -> None:
    got, want = dict(measured["cases"][case]), dict(pinned["cases"][case])
    if pinned["python"] != _MINOR:
        got.pop("calls")
        want.pop("calls")
    assert got == want, _paste(measured)


def test_aggregation_moves_the_burst_counts(measured) -> None:
    drained = {}
    for strategy in ("default", "aggreg"):
        run = _runtime(f"burst_64x2KiB_ib_{strategy}").run(_bursts(1))
        assert run.result(1) == list(range(_BURST))
        drained[strategy] = run.rank_times[0]
    # fewer wrappers: the sender's injection queue drains sooner
    assert drained["aggreg"] < drained["default"]
    default = measured["cases"]["burst_64x2KiB_ib_default"]
    aggreg = measured["cases"]["burst_64x2KiB_ib_aggreg"]
    assert default["nmad.entries_per_pw"] == 1.0
    assert aggreg["nmad.entries_per_pw"] > 1.0
    assert aggreg["hardware.nic_tx_frames"] \
        < 0.75 * default["hardware.nic_tx_frames"]


def test_counts_do_not_depend_on_the_hash_seed(measured) -> None:
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
    src = os.path.dirname(os.path.dirname(_PACKAGE))
    root = os.path.dirname(src)
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([src, root]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json\n"
         "from tests.integration.test_work_budget import measure_all\n"
         "print(json.dumps(measure_all()))"],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == measured
