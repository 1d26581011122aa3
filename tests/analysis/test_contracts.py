"""Contract passes on seeded violation fixtures — one per contract class."""

import os

import repro
from repro.analysis.static import CONTRACTS, check_package, run_check
from repro.analysis.static.contracts import (callback_registrations,
                                             parse_package)
from repro.cli import main

#: a minimal taxonomy module for the RPC005/RPC006 fixtures
TAXONOMY = """
CATEGORIES = {
    "nic.tx": "frame leaves the NIC",
    "ghost.unused": "never emitted anywhere",
}
"""


def taxonomy(*categories):
    """``observability/taxonomy.py`` registering exactly ``categories``."""
    entries = "".join(f"    {c!r}: 'doc',\n" for c in categories)
    return {"observability/__init__.py": "",
            "observability/taxonomy.py": f"CATEGORIES = {{\n{entries}}}\n"}


def codes_of(found):
    return sorted({v.code for v in found})


def check(make_pkg, files):
    return check_package(make_pkg(files))


def codes(make_pkg, source, path="a.py", extra=None):
    """Every finding's code, in report order, for one module's source."""
    return [v.code for v in check(make_pkg, {path: source, **(extra or {})})]


# ---------------------------------------------------------------------------
# RPC001 — a callback is never a generator; RPC002 bans the host sleep
# ---------------------------------------------------------------------------

def test_blocking_in_subscriber_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        import time

        class Metrics:
            def on_record(self, rec):
                time.sleep(0.1)

            def attach(self, trace):
                trace.subscribe(self.on_record)
        """})
    [v] = found
    assert v.code == "RPC002" and v.line == 6
    assert "on_record" in v.message and "time.sleep" in v.message


def test_blocking_reached_through_helper(make_pkg):
    found = check(make_pkg, {"a.py": """
        import time

        def slow_flush():
            time.sleep(1.0)

        class Metrics:
            def on_record(self, rec):
                slow_flush()

            def attach(self, trace):
                trace.subscribe(self.on_record)
        """})
    [v] = found
    assert v.code == "RPC002" and v.line == 5
    assert "slow_flush" in v.message


def test_generator_subscriber_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        class Metrics:
            def on_record(self, rec):
                yield rec

            def attach(self, trace):
                trace.subscribe(self.on_record, categories=("nic.tx",))
        """})
    [v] = found
    assert v.code == "RPC001" and v.line == 7
    assert "pkg.a.Metrics.on_record" in v.message and ".subscribe()" in v.message


def test_generator_done_callback_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        def on_done(evt):
            yield evt

        def wait(sim):
            evt = sim.event()
            evt.add_done_callback(on_done)
            evt.add_done_callback(lambda e: (yield e))
            evt.add_done_callback(lambda e: print(e))
        """})
    assert [(v.code, v.line) for v in found] == [("RPC001", 7),
                                                 ("RPC001", 8)]
    assert "pkg.a.on_done" in found[0].message
    assert "pkg.a.wait.<lambda@8>" in found[1].message
    assert ".add_done_callback()" in found[0].message

def test_generator_shares_hook_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        class Strategy:
            def _shares(self, free, item):
                yield 1
        """})
    [v] = [v for v in found if v.code == "RPC001"]
    assert "_shares" in v.message and "yield" in v.message


def test_unresolved_registration_is_not_guessed(make_pkg):
    # a callable resolved in another module or through a local is out of
    # the lexical resolver's reach: no finding rather than a guess
    found = check(make_pkg, {"a.py": """
        from pkg.b import on_record

        def attach(trace, handler):
            trace.subscribe(on_record)
            trace.subscribe(handler.on_record)
        """, "b.py": """
        def on_record(rec):
            yield rec
        """})
    assert found == []


def test_nested_def_scopes_stay_separate(make_pkg):
    # a generator nested in a callback does not make the callback one,
    # and a finding names the innermost def it sits in
    found = check(make_pkg, {"a.py": """
        import time

        def on_record(rec):
            def later():
                yield rec
                time.sleep(0)
            return later

        def attach(trace):
            trace.subscribe(on_record)
        """})
    [v] = found
    assert v.code == "RPC002" and "'pkg.a.on_record.later'" in v.message


def test_callback_registration_is_captured(make_pkg):
    root = make_pkg({"a.py": """
        def module_level(rec):
            pass

        class Listener:
            def on_record(self, rec):
                pass

            def attach(self, trace, evt):
                trace.subscribe(self.on_record)
                trace.subscribe(module_level)
                evt.add_done_callback(lambda e: self.on_record(e))
                evt.add_done_callback(self.missing)
        """})
    [mod] = [m for m in parse_package(root) if m.name == "pkg.a"]
    regs = [(r.via, r.callback, r.line) for r in callback_registrations(mod)]
    assert sorted(regs) == [
        ("add_done_callback", "pkg.a.Listener.attach.<lambda@12>", 12),
        ("subscribe", "pkg.a.Listener.on_record", 10),
        ("subscribe", "pkg.a.module_level", 11),
    ]


def test_category_routed_registration_is_captured(make_pkg):
    root = make_pkg({"a.py": """
        class Listener:
            def on_record(self, rec):
                pass

            def attach(self, trace):
                trace.subscribe(self.on_record, categories=("nic.tx",))
        """})
    [mod] = [m for m in parse_package(root) if m.name == "pkg.a"]
    regs = [(r.via, r.callback) for r in callback_registrations(mod)]
    assert regs == [("subscribe", "pkg.a.Listener.on_record")]


def test_trace_metrics_feed_is_a_callback_root():
    # the live metrics feed and every other registration on the tree:
    # three named callables, and AnyOf's child callback through the
    # lambda that calls it
    regs = {(r.via, r.callback)
            for mod in parse_package(os.path.dirname(repro.__file__))
            for r in callback_registrations(mod)}
    named = {reg for reg in regs if "<lambda@" not in reg[1]}
    assert named == {
        ("subscribe", "repro.observability.metrics.TraceMetrics.on_record"),
        ("subscribe", "repro.observability.profile.SpanProfiler.on_record"),
        ("add_done_callback", "repro.simulator.process.Task._on_event"),
    }
    assert any(via == "add_done_callback"
               and callback.startswith("repro.simulator.events.AnyOf."
                                       "__init__.<lambda@")
               for via, callback in regs)


def test_clean_subscriber_passes(make_pkg):
    found = check(make_pkg, {"a.py": """
        class Metrics:
            def on_record(self, rec):
                self.count = getattr(self, "count", 0) + 1

            def attach(self, trace):
                trace.subscribe(self.on_record)
        """})
    assert "RPC001" not in codes_of(found)


# ---------------------------------------------------------------------------
# RPC002 / RPC003 — funnel escapes
# ---------------------------------------------------------------------------

def test_wrapped_host_clock_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        from time import time as now

        def my_clock():
            return now()
        """})
    [v] = [v for v in found if v.code == "RPC002"]
    assert "time.time" in v.message and "my_clock" in v.message


def test_raw_clock_detected_through_alias(make_pkg):
    # an aliased class, read through an attribute of the alias
    found = check(make_pkg, {"a.py": """
        from datetime import datetime as dt

        def stamp():
            return dt.now()
        """})
    [v] = found
    assert v.code == "RPC002" and v.line == 5
    assert "datetime.datetime.now" in v.message and "stamp" in v.message


def test_funnel_module_is_exempt(make_pkg):
    found = check(make_pkg, {
        "simulator/__init__.py": "",
        "simulator/hostclock.py": """
        import time

        def host_clock():
            return time.time()
        """})
    assert "RPC002" not in codes_of(found)


def test_unseeded_rng_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        import random

        def jitter():
            return random.random()
        """})
    [v] = [v for v in found if v.code == "RPC003"]
    assert "random.random" in v.message


def test_aliased_process_time_and_datetime_today_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        import time as clock
        from datetime import datetime

        def stamp():
            return clock.process_time()

        def helper():
            return datetime.today()
        """})
    assert [v.code for v in found] == ["RPC002", "RPC002"]
    assert "time.process_time" in found[0].message
    assert "datetime.datetime.today" in found[1].message


def test_rpc002_flags_time_time(make_pkg):
    found = check(make_pkg, {"a.py": """
        import time
        started = time.time()
    """})
    assert [v.code for v in found] == ["RPC002"]
    assert "host_clock" in found[0].message


def test_rpc002_flags_perf_counter_and_datetime_now(make_pkg):
    assert codes(make_pkg, """
        import time
        t = time.perf_counter()
    """) == ["RPC002"]
    assert codes(make_pkg, """
        import datetime
        stamp = datetime.datetime.now()
    """) == ["RPC002"]


def test_rpc002_flags_sleep_but_not_sim_clock(make_pkg):
    found = check(make_pkg, {"a.py": """
        import time
        def run(sim):
            t = sim.now
            time.sleep(0)  # blocks the host while simulated time stands
    """})
    assert [(v.code, v.line) for v in found] == [("RPC002", 5)]


def test_time_sleep_blocks(make_pkg):
    found = check(make_pkg, {"a.py": """
        from time import sleep

        class Poller:
            def wait(self):
                sleep(0.1)
        """})
    [v] = found
    assert v.code == "RPC002" and v.line == 6
    assert "time.sleep" in v.message and "Poller.wait" in v.message


def test_aliased_sleep_and_rng_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        from time import sleep as nap
        import random as rnd
        import numpy.random as npr

        def pause():
            nap(1)

        def draw():
            return rnd.random() + npr.default_rng().random()
        """})
    assert [v.code for v in found] == ["RPC002", "RPC003", "RPC003"]
    assert "time.sleep" in found[0].message
    drawn = " ".join(v.message for v in found[1:])
    assert "random.random " in drawn and "numpy.random.default_rng" in drawn


def test_rpc002_allowlisted_in_simulator_hostclock(make_pkg):
    source = "import time\n\ndef host_clock():\n    return time.time()\n"

    def codes_at(path, name):
        files = {path: source}
        if "/" in path:
            files[path.split("/")[0] + "/__init__.py"] = ""
        return [v.code for v in check_package(make_pkg(files, name=name))]

    assert codes_at("simulator/hostclock.py", "funnel") == []
    assert codes_at("other.py", "other") == ["RPC002"]
    # the old audited home is not exempt: everything funnels through
    # repro.simulator.hostclock
    assert codes_at("experiments/common.py", "old_home") == ["RPC002"]


def test_rpc003_flags_numpy_random(make_pkg):
    assert codes(make_pkg, """
        import numpy as np
        rng = np.random.default_rng()
    """) == ["RPC003"]


def test_rpc003_clean_on_named_streams(make_pkg):
    assert codes(make_pkg, """
        from repro.simulator.rng import rng_stream

        def jitter(seed):
            stream = rng_stream("marcel.jitter", seed)
            return stream.random()
    """) == []


def test_rpc003_clean_on_generator_attribute_named_random(make_pkg):
    # self._jitter_rng.random() is a draw from an already-seeded stream
    assert codes(make_pkg, """
        def draw(self):
            return self._jitter_rng.random()
    """) == []


# ---------------------------------------------------------------------------
# RPC005 / RPC006 — taxonomy round-trip
# ---------------------------------------------------------------------------

def test_unregistered_category_detected(make_pkg):
    found = check(make_pkg, {
        "observability/__init__.py": "",
        "observability/taxonomy.py": TAXONOMY,
        "a.py": """
        def emit(sim):
            sim.record("nic.tx", size=4)
            sim.record("rogue.event", size=4)
            sim.record("ghost.unused")
        """})
    [v] = [v for v in found if v.code == "RPC005"]
    assert "rogue.event" in v.message
    assert "RPC006" not in codes_of(found)


def test_dead_taxonomy_entry_detected(make_pkg):
    found = check(make_pkg, {
        "observability/__init__.py": "",
        "observability/taxonomy.py": TAXONOMY,
        "a.py": """
        def emit(sim):
            sim.record("nic.tx", size=4)
        """})
    [v] = [v for v in found if v.code == "RPC006"]
    assert "ghost.unused" in v.message
    assert v.path.endswith("taxonomy.py")


def test_any_literal_counts_as_emission_evidence(make_pkg):
    # indirect emission (functools.partial) leaves the literal somewhere
    found = check(make_pkg, {
        "observability/__init__.py": "",
        "observability/taxonomy.py": TAXONOMY,
        "a.py": """
        from functools import partial

        def emit(sim):
            sim.record("nic.tx", size=4)
            mark = partial(sim.record, "ghost.unused")
            mark()
        """})
    assert "RPC006" not in codes_of(found)


def test_category_check_ignores_case(make_pkg):
    found = check(make_pkg, {**taxonomy("nic.tx"), "a.py": """
        def emit(sim):
            sim.record("nic.tx", size=4)
            sim.record("Nmad.Bogus", size=4)
        """})
    assert [v.code for v in found] == ["RPC005"]
    assert "Nmad.Bogus" in found[0].message


def test_rpc005_flags_unregistered_category(make_pkg):
    found = check(make_pkg, {**taxonomy(), "a.py": """
        def f(sim):
            sim.record("nmad.bogus_category", rank=0)
    """})
    assert [v.code for v in found] == ["RPC005"]
    assert "nmad.bogus_category" in found[0].message


def test_rpc005_clean_on_registered_category_and_plain_strings(make_pkg):
    assert codes(make_pkg, """
        def f(sim, trace):
            sim.record("nmad.send_post", rank=0)
            trace.filter("pioman.ltask")
            print("hello there")       # not a .record/.filter call
            sim.record(category, x=1)  # dynamic: not checkable
    """, extra=taxonomy("nmad.send_post", "pioman.ltask")) == []


# ---------------------------------------------------------------------------
# RPC007 — iteration order
# ---------------------------------------------------------------------------

def test_rpc007_flags_for_over_set_literal_and_var(make_pkg):
    assert codes(make_pkg, """
        def f(items):
            for x in {1, 2, 3}:
                print(x)
    """) == ["RPC007"]
    assert codes(make_pkg, """
        def f(entries):
            pending = set(entries)
            for item in pending:
                print(item)
    """) == ["RPC007"]


def test_rpc007_flags_comprehension_and_set_arithmetic(make_pkg):
    assert codes(make_pkg, """
        def f(a, b):
            lost = set(a) - set(b)
            return [x for x in lost]
    """) == ["RPC007"]


def test_rpc007_flags_sort_key_id(make_pkg):
    assert codes(make_pkg, """
        def f(objs):
            objs.sort(key=id)
    """) == ["RPC007"]


def test_rpc007_clean_when_sorted_or_rebound(make_pkg):
    assert codes(make_pkg, """
        def f(entries):
            pending = set(entries)
            for item in sorted(pending):
                print(item)
    """) == []
    # rebinding to a list clears the set-ness
    assert codes(make_pkg, """
        def f(entries):
            pending = set(entries)
            pending = sorted(pending)
            for item in pending:
                print(item)
    """) == []


def test_rpc007_nested_function_scanned_in_its_own_scope(make_pkg):
    # the inner loop iterates the closed-over set: exactly one finding
    assert codes(make_pkg, """
        def outer(entries):
            pending = set(entries)
            def inner():
                for item in pending:
                    print(item)
            for item in sorted(pending):
                print(item)
    """) == ["RPC007"]


# ---------------------------------------------------------------------------
# RPC008 — float equality on timestamps
# ---------------------------------------------------------------------------

def test_rpc008_flags_timestamp_equality(make_pkg):
    assert codes(make_pkg, """
        def f(sim, frame):
            if sim.now == frame.arrival:
                return True
    """) == ["RPC008"]
    assert codes(make_pkg, """
        def f(a, b):
            return a.finish_time != b.finish_time
    """) == ["RPC008"]


def test_rpc008_clean_on_orderings_and_none_checks(make_pkg):
    assert codes(make_pkg, """
        def f(sim, frame):
            if sim.now >= frame.arrival:
                return True
            if frame.deadline == None:
                return False
    """) == []
    assert codes(make_pkg, """
        def f(count, expected):
            return count == expected
    """) == []


# ---------------------------------------------------------------------------
# RPC009 — mutable defaults
# ---------------------------------------------------------------------------

def test_rpc009_flags_list_dict_and_ctor_defaults(make_pkg):
    assert codes(make_pkg, "def f(items=[]):\n    pass\n") == ["RPC009"]
    assert codes(make_pkg, "def f(*, table=dict()):\n    pass\n") \
        == ["RPC009"]
    assert codes(make_pkg, """
        from collections import deque

        def f(queue=deque()):
            pass
    """) == ["RPC009"]


def test_rpc009_clean_on_none_and_immutable_defaults(make_pkg):
    assert codes(make_pkg, """
        def f(items=None, rails=(), name="x", n=3):
            pass
    """) == []


# ---------------------------------------------------------------------------
# RPC010 — a charge yielded on the spot is a bare delay
# ---------------------------------------------------------------------------

def test_rpc010_flags_a_timer_yielded_on_the_spot(make_pkg):
    assert codes(make_pkg, """
        def charge(self, comm):
            yield self.sim.timeout(self.costs.send_post)
            yield comm.sim.timeout(0.5e-6 + 1e-9)
    """) == ["RPC010", "RPC010"]


def test_rpc010_clean_on_delays_and_composed_or_valued_timers(make_pkg):
    assert codes(make_pkg, """
        def wait(sim, evt, d):
            yield d
            yield sim.any_of([evt, sim.timeout(d)])
            yield sim.timeout(d, value="late")
            timer = sim.timeout(d)
            yield timer
    """) == []


def test_rpc010_exempts_the_simulator_package(make_pkg):
    found = check(make_pkg, {"simulator/__init__.py": "",
                             "simulator/helpers.py": """
        def sleep(sim, d):
            yield sim.timeout(d)
    """})
    assert "RPC010" not in codes_of(found)


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------

def test_inline_pragma_suppresses(make_pkg):
    found = check(make_pkg, {"a.py": """
        import random

        def jitter():
            return random.random()  # repro-check: allow[RPC003] test noise
        """})
    assert "RPC003" not in codes_of(found)


def test_comment_line_pragma_covers_next_line(make_pkg):
    found = check(make_pkg, {"a.py": """
        import random

        def jitter():
            # repro-check: allow[RPC003] justification on its own line
            return random.random()
        """})
    assert "RPC003" not in codes_of(found)


def test_baseline_ratchets(make_pkg):
    root = make_pkg({"a.py": """
        import random

        def jitter():
            return random.random()
        """})
    found = check_package(root)
    baseline = {v.fingerprint(): 1 for v in found}
    result = run_check(root, baseline=baseline)
    assert result.clean
    assert len(result.baselined) == len(found)
    # a new violation is NOT covered by the old baseline
    result = run_check(root, baseline={})
    assert not result.clean


# ---------------------------------------------------------------------------
# the whole catalog through the CLI
# ---------------------------------------------------------------------------

ONE_OF_EACH = """
import random
import time


class Metrics:
    def on_record(self, rec):
        yield rec                          # RPC001: a generator subscriber

    def attach(self, trace):
        trace.subscribe(self.on_record)


def stamp():
    return time.time()                     # RPC002


def jitter():
    return random.random()                 # RPC003


def emit(sim):
    sim.record("nic.tx", size=4)
    sim.record("rogue.event", size=4)      # RPC005; RPC006: ghost.unused


def drain(pending):
    for item in set(pending):              # RPC007
        print(item)


def arrived(sim, frame):
    return sim.now == frame.arrival        # RPC008


def collect(items=[]):                     # RPC009
    return items


def charge(sim):
    yield sim.timeout(1e-6)                # RPC010
"""


def test_cli_check_flags_every_contract(make_pkg, capsys):
    root = make_pkg({"observability/__init__.py": "",
                     "observability/taxonomy.py": TAXONOMY,
                     "a.py": ONE_OF_EACH})
    assert main(["check", root]) == 1
    out = capsys.readouterr().out
    missing = [code for code, _summary in CONTRACTS if code not in out]
    assert not missing, f"not flagged: {missing}\n{out}"
