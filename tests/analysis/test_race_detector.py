"""Race detector: happens-before semantics, presets, and the CLI."""

import contextlib
import os
from collections import Counter

import pytest

from repro import config
from repro.analysis.race import (RaceDetector, run_race, run_racy_demo,
                                 watch_runtime)
from repro.analysis.race import watch
from repro.analysis.race.watch import REGIONS, WATCHED, Region
from repro.cli import main
from repro.hardware.netgraph import ring
from repro.mpich2.ch3 import CH3Stack
from repro.runtime import MPIRuntime
from repro.simulator import Channel, Semaphore, Simulator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def make_sim():
    det = RaceDetector()
    sim = Simulator()
    det.install(sim)
    return sim, det


# ----------------------------------------------------------------------
# toy happens-before scenarios
# ----------------------------------------------------------------------
def test_unsynchronized_tasks_race():
    sim, det = make_sim()

    def writer():
        yield sim.timeout(1e-6)
        det.write("shared")

    def reader():
        yield sim.timeout(2e-6)
        det.read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    report = det.report()
    assert len(report.races) == 1
    race = report.races[0]
    assert race.var == "shared"
    assert {race.first.write, race.second.write} == {True, False}
    assert "RACE on shared" in report.format_text()


def test_event_completion_orders_accesses():
    sim, det = make_sim()
    done = sim.event()

    def writer():
        yield sim.timeout(1e-6)
        det.write("shared")
        done.succeed()

    def reader():
        yield done
        det.read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    assert det.report().clean


def test_sync_region_serializes_same_key():
    sim, det = make_sim()

    def writer():
        yield sim.timeout(1e-6)
        with det.region(("node", 0), "writer"):
            det.write("shared")

    def reader():
        yield sim.timeout(2e-6)
        with det.region(("node", 0), "reader"):
            det.read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    assert det.report().clean


def test_different_region_keys_still_race():
    sim, det = make_sim()

    def writer():
        yield sim.timeout(1e-6)
        with det.region(("node", 0), "writer"):
            det.write("shared")

    def reader():
        yield sim.timeout(2e-6)
        with det.region(("node", 1), "reader"):
            det.read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    assert len(det.report().races) == 1


def test_region_held_across_suspension_resyncs():
    # the holder keeps the virtual lock across a yield; an interleaved
    # same-key region must still be ordered against both its slices
    sim, det = make_sim()

    def holder():
        with det.region(("node", 0), "holder"):
            det.write("shared")
            yield sim.timeout(2e-6)
            det.write("shared")

    def interloper():
        yield sim.timeout(1e-6)
        with det.region(("node", 0), "interloper"):
            det.read("shared")

    sim.spawn(holder(), name="holder")
    sim.spawn(interloper(), name="interloper")
    sim.run()
    assert det.report().clean


def test_inline_timer_wakeup_carries_the_fork_edge():
    # a timer runs its waiters inside its own queue entry (no second
    # dispatch); the waiter must still inherit the arming context's
    # clock, exactly as the queued wake-up did
    sim, det = make_sim()
    contexts = []

    def waiter(_evt):
        contexts.append(det.current)
        det.read("shared")

    def arm():
        contexts.append(det.current)
        det.write("shared")
        sim.timeout(1e-6).add_done_callback(waiter)

    sim.schedule(1e-6, arm)
    sim.run()
    assert sim.events_executed == 2            # arm + the timer, no hop
    armer, woken = contexts
    assert woken is not armer and woken.kind == "callback"
    assert woken.vc[armer.cid] >= 1            # the fork edge
    assert det.current is det.main             # nested slices unwound
    assert det.report().clean


def test_semaphore_handoff_orders_accesses():
    sim, det = make_sim()
    sem = Semaphore(sim, 0)

    def producer():
        yield sim.timeout(1e-6)
        det.write("shared")
        sem.release()

    def consumer():
        yield sem.acquire()
        det.read("shared")

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    assert det.report().clean


def test_channel_handoff_orders_accesses():
    sim, det = make_sim()
    chan = Channel(sim)

    def producer():
        yield sim.timeout(1e-6)
        det.write("shared")
        chan.put("item")

    def consumer():
        yield sim.timeout(2e-6)
        assert (yield chan.get()) == "item"
        det.read("shared")

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    assert det.report().clean


def test_rogue_callback_races_with_task():
    sim, det = make_sim()

    def worker():
        yield sim.timeout(1e-6)
        det.write("shared")

    sim.spawn(worker(), name="worker")
    sim.schedule(2e-6, lambda: det.read("shared"))
    sim.run()
    report = det.report()
    assert len(report.races) == 1
    kinds = {report.races[0].first.ctx_kind, report.races[0].second.ctx_kind}
    assert kinds == {"task", "callback"}


def test_no_monitor_means_no_overhead_paths():
    """An unwatched runtime runs the protocol methods themselves: no
    stack, driver, router, fabric or engine carries a region wrapper
    until :func:`watch_runtime` installs them."""
    methods = {region.method for region in REGIONS}
    for preset in ("mpich2_nmad_pioman", "mpich2_nmad_manual_poll",
                   "mpich2_nmad_dedicated", "mvapich2"):
        runtime = MPIRuntime(2, config.stack(preset),
                             cluster=config.ClusterSpec(n_nodes=4,
                                                        topology=ring(4)))
        assert runtime.sim.monitor is None
        owners = list(watch._owners(runtime))
        assert {"MPIRuntime", "RoutedFabric"} <= {type(o).__name__
                                                  for o in owners}
        for owner in owners:
            assert not set(vars(owner)) & methods, (preset, owner)
        nics = [nic for node in runtime.cluster.nodes
                for nic in node.nics.values()]
        assert all(nic.rx_notify.__func__ is MPIRuntime._route_frame
                   for nic in nics)

        watch_runtime(RaceDetector(), runtime)
        for owner in owners:
            assert set(vars(owner)) >= {region.method for region in REGIONS
                                        if isinstance(owner, region.owner)}
        assert all(nic.rx_notify is runtime._route_frame for nic in nics)


def test_region_table_names_existing_methods(monkeypatch):
    """A method renamed in the protocol code fails at watch time, naming
    the table entry, instead of silently dropping its lock."""
    runtime = MPIRuntime(2, config.mpich2_nmad(), cluster=config.xeon_pair())
    stale = Region(CH3Stack, "_post_recv_renamed",
                   lambda stack, *_: ("node", stack.node.node_id),
                   "mpich2.irecv@r")
    monkeypatch.setattr(watch, "REGIONS", REGIONS + (stale,))
    with pytest.raises(ValueError, match=r"CH3Stack\._post_recv_renamed"):
        watch_runtime(RaceDetector(), runtime)


# ----------------------------------------------------------------------
# the real stacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["mpich2_nmad", "mpich2_nmad_pioman"])
def test_presets_are_race_free(preset):
    report = run_race(config.stack(preset), size=65536, reps=3)
    assert report.accesses > 100, "instrumentation did not fire"
    assert report.contexts > 10
    assert report.clean, report.format_text()


def _two_rail_pioman():
    return config.mpich2_nmad_pioman(rails=("ib", "mx"), progress="pioman")


#: (spec, run_race overrides, (accesses, contexts, sync edges,
#: variables) the detector must see)
_ACCESS_COUNTS = {
    "mpich2_nmad": (config.mpich2_nmad, {}, (546, 111, 88, 16)),
    "mpich2_nmad_256B": (config.mpich2_nmad, {"size": 256},
                         (246, 57, 52, 14)),
    "mpich2_nmad_pioman_ib_mx": (_two_rail_pioman, {},
                                 (576, 219, 166, 16)),
}


#: case -> region label prefix -> entries per node, on both nodes
_REGION_ENTRIES = {
    "mpich2_nmad": {"mpich2.isend": 3, "mpich2.irecv": 3,
                    "mpich2.progress": 18, "net.route": 9,
                    "nmad.injected": 9},
    "mpich2_nmad_256B": {"mpich2.isend": 3, "mpich2.irecv": 3,
                         "mpich2.progress": 12, "net.route": 3,
                         "nmad.injected": 3},
    "mpich2_nmad_pioman_ib_mx": {"mpich2.isend": 3, "mpich2.irecv": 3,
                                 "mpich2.progress": 9, "net.route": 9,
                                 "nmad.injected": 9, "pioman.ltask": 12},
}


@pytest.mark.parametrize("case", sorted(_ACCESS_COUNTS))
def test_watched_containers_report_every_access(case, monkeypatch):
    """A container dropped from the watch table, or an operation the
    recording subclass misses, shows up here as a lower access or
    variable count; a change to who runs where or what synchronizes as
    a moved context or sync count.  Region entries are counted per
    label and key, so a region keyed to the wrong node (or labelled
    with the wrong rank) moves them even where the counts hold."""
    entries = Counter()
    enter = RaceDetector.region_enter

    def counted(det, key, label=None):
        entries[label, key] += 1
        enter(det, key, label)

    monkeypatch.setattr(RaceDetector, "region_enter", counted)
    make_spec, overrides, counts = _ACCESS_COUNTS[case]
    report = run_race(make_spec(), **overrides)
    assert report.clean, report.format_text()
    assert (report.accesses, report.contexts, report.syncs,
            report.variables) == counts
    assert entries == {
        (prefix + (f"@r{node}" if prefix.startswith("mpich2.") else ""),
         ("node", node)): n
        for prefix, n in _REGION_ENTRIES[case].items() for node in (0, 1)}


#: case -> (region label prefix knocked out, spec, run_race
#: overrides, the exact set of variables the detector must flag)
_KNOCKOUTS = {
    "nmad.injected": (
        "nmad.injected", config.mpich2_nmad, {},
        {"nmad.pending@r0:ib", "nmad.pending@r1:ib",
         "nmad.strategy@r0", "nmad.strategy@r1"}),
    "net.route": ("net.route", config.mpich2_nmad, {},
                  {"mpich2.inbox@r0", "mpich2.inbox@r1"}),
    "net.route_256B": ("net.route", config.mpich2_nmad, {"size": 256},
                       {"mpich2.inbox@r0", "mpich2.inbox@r1"}),
    "pioman.ltask": ("pioman.ltask", _two_rail_pioman, {},
                     {"pioman.queue@n0", "pioman.queue@n1"}),
    "mpich2.progress": ("mpich2.progress", config.mpich2_nmad, {}, set()),
    # manual_poll drains its queue under the node lock, as the other
    # engines' workers do: the application-side pops stay ordered
    "mpich2.irecv_manual_poll": ("mpich2.irecv",
                                 config.STACKS["mpich2_nmad_manual_poll"], {},
                                 set()),
}


@pytest.mark.parametrize("case", sorted(_KNOCKOUTS))
def test_sync_region_knockout_flags_what_it_guarded(case, monkeypatch):
    """Remove one kind of virtual lock region and the detector must flag
    exactly the shared state that region ordered: the detector's power,
    pinned per region."""
    prefix, make_spec, overrides, expected = _KNOCKOUTS[case]
    region = RaceDetector.region

    def knocked_out(det, key, label=None):
        if label is not None and label.startswith(prefix):
            return contextlib.nullcontext()
        return region(det, key, label)

    monkeypatch.setattr(RaceDetector, "region", knocked_out)
    report = run_race(make_spec(), **overrides)
    assert not report.dropped
    assert {race.var for race in report.races} == expected


def test_analysis_doc_lists_every_watched_variable():
    with open(os.path.join(ROOT, "docs", "ANALYSIS.md")) as fh:
        doc = fh.read()
    for var, _paths in WATCHED:
        assert f"`{var}<" in doc, var


def test_analysis_doc_lists_every_region_label():
    with open(os.path.join(ROOT, "docs", "ANALYSIS.md")) as fh:
        doc = fh.read()
    for region in REGIONS:
        label = region.label
        assert (f"`{label}<" if label.endswith("@r")
                else f"`{label}`") in doc, label


def test_racy_demo_is_flagged():
    report = run_racy_demo()
    assert report.races, "seeded racy scenario was not detected"
    assert {r.var for r in report.races} == {"nmad.posted@r1"}
    assert all("rogue_peek" in r.first.ctx_name
               or "rogue_peek" in r.second.ctx_name for r in report.races)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_race_clean_preset(capsys):
    assert main(["race", "--preset", "mpich2_nmad", "--size", "16K",
                 "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "no unordered conflicting accesses" in out


def test_cli_race_demo_exits_nonzero(capsys):
    assert main(["race", "--demo-racy"]) == 1
    out = capsys.readouterr().out
    assert "RACE on" in out
