"""Race detector: happens-before semantics, presets, and the CLI."""

import pytest

from repro import config
from repro.analysis.race import RaceDetector, run_race, run_racy_demo
from repro.cli import main
from repro.simulator import Channel, Semaphore, Simulator


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
        sim.race_write("shared")

    def reader():
        yield sim.timeout(2e-6)
        sim.race_read("shared")

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
        sim.race_write("shared")
        done.succeed()

    def reader():
        yield done
        sim.race_read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    assert det.report().clean


def test_sync_region_serializes_same_key():
    sim, det = make_sim()

    def writer():
        yield sim.timeout(1e-6)
        with sim.sync_region(("node", 0), "writer"):
            sim.race_write("shared")

    def reader():
        yield sim.timeout(2e-6)
        with sim.sync_region(("node", 0), "reader"):
            sim.race_read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    assert det.report().clean


def test_different_region_keys_still_race():
    sim, det = make_sim()

    def writer():
        yield sim.timeout(1e-6)
        with sim.sync_region(("node", 0), "writer"):
            sim.race_write("shared")

    def reader():
        yield sim.timeout(2e-6)
        with sim.sync_region(("node", 1), "reader"):
            sim.race_read("shared")

    sim.spawn(writer(), name="writer")
    sim.spawn(reader(), name="reader")
    sim.run()
    assert len(det.report().races) == 1


def test_region_held_across_suspension_resyncs():
    # the holder keeps the virtual lock across a yield; an interleaved
    # same-key region must still be ordered against both its slices
    sim, det = make_sim()

    def holder():
        with sim.sync_region(("node", 0), "holder"):
            sim.race_write("shared")
            yield sim.timeout(2e-6)
            sim.race_write("shared")

    def interloper():
        yield sim.timeout(1e-6)
        with sim.sync_region(("node", 0), "interloper"):
            sim.race_read("shared")

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
        sim.race_read("shared")

    def arm():
        contexts.append(det.current)
        sim.race_write("shared")
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
        sim.race_write("shared")
        sem.release()

    def consumer():
        yield sem.acquire()
        sim.race_read("shared")

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    assert det.report().clean


def test_channel_handoff_orders_accesses():
    sim, det = make_sim()
    chan = Channel(sim)

    def producer():
        yield sim.timeout(1e-6)
        sim.race_write("shared")
        chan.put("item")

    def consumer():
        yield sim.timeout(2e-6)
        assert chan.try_get() == "item"
        sim.race_read("shared")

    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")
    sim.run()
    assert det.report().clean


def test_rogue_callback_races_with_task():
    sim, det = make_sim()

    def worker():
        yield sim.timeout(1e-6)
        sim.race_write("shared")

    sim.spawn(worker(), name="worker")
    sim.schedule(2e-6, lambda: sim.race_read("shared"))
    sim.run()
    report = det.report()
    assert len(report.races) == 1
    kinds = {report.races[0].first.ctx_kind, report.races[0].second.ctx_kind}
    assert kinds == {"task", "callback"}


def test_no_monitor_means_no_overhead_paths():
    sim = Simulator()
    assert sim.monitor is None
    sim.race_write("anything")            # no-op
    with sim.sync_region(("node", 0)):    # null region
        sim.race_read("anything")


# ----------------------------------------------------------------------
# the real stacks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["mpich2_nmad", "mpich2_nmad_reliable"])
def test_presets_are_race_free(preset):
    spec = {"mpich2_nmad": config.mpich2_nmad,
            "mpich2_nmad_reliable": config.mpich2_nmad_reliable}[preset]()
    report = run_race(spec, size=65536, reps=3)
    assert report.accesses > 100, "instrumentation did not fire"
    assert report.contexts > 10
    assert report.clean, report.format_text()


def test_racy_demo_is_flagged():
    report = run_racy_demo()
    assert report.races, "seeded racy scenario was not detected"
    assert any(r.var == "nmad.posted@r1" for r in report.races)
    text = report.format_text()
    assert "rogue monitor peek" in text


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
