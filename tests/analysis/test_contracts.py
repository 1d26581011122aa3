"""Contract passes on seeded violation fixtures — one per contract class."""

from repro.analysis.static import CONTRACTS, check_package, run_check
from repro.analysis.static.callgraph import build_package
from repro.analysis.static.contracts import dead_public_functions
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
    found, _graph, _analysis, _dead = check_package(make_pkg(files))
    return found


def codes(make_pkg, source, path="a.py", extra=None):
    """Every finding's code, in report order, for one module's source."""
    return [v.code for v in check(make_pkg, {path: source, **(extra or {})})]


# ---------------------------------------------------------------------------
# RPC001 — blocking in callback contexts
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
    assert "RPC001" in codes_of(found)
    [v] = [v for v in found if v.code == "RPC001"]
    assert "on_record" in v.message and "block" in v.message


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
    [v] = [v for v in found if v.code == "RPC001"]
    assert "slow_flush" in v.message


def test_generator_shares_hook_detected(make_pkg):
    found = check(make_pkg, {"a.py": """
        class Strategy:
            def _shares(self, free, item):
                yield 1
        """})
    [v] = [v for v in found if v.code == "RPC001"]
    assert "_shares" in v.message and "yield" in v.message


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


def test_rpc002_clean_on_sim_clock_and_sleep(make_pkg):
    assert codes(make_pkg, """
        import time
        def run(sim):
            t = sim.now
            time.sleep(0)  # sleeping is not *reading* the clock
    """) == []


def test_rpc002_allowlisted_in_simulator_hostclock(make_pkg):
    source = "import time\n\ndef host_clock():\n    return time.time()\n"

    def codes_at(path, name):
        files = {path: source}
        if "/" in path:
            files[path.split("/")[0] + "/__init__.py"] = ""
        return [v.code for v in check_package(make_pkg(files, name=name))[0]]

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
# RPC004 — race-instrumentation coverage
# ---------------------------------------------------------------------------

RACY_CLASS = """
class Queue:
    def __init__(self, sim):
        self.sim = sim
        self.items = []

    def guarded_push(self, x):
        self.sim.race_write("queue.items")
        self.items.append(x)

    def bare_push(self, x):
        self.items.append(x)
"""


def test_uninstrumented_shared_write_detected(make_pkg):
    found = check(make_pkg, {"a.py": RACY_CLASS})
    [v] = [v for v in found if v.code == "RPC004"]
    assert "bare_push" in v.message and "self.items.append" in v.message


def test_write_covered_by_instrumented_callers_passes(make_pkg):
    found = check(make_pkg, {"a.py": RACY_CLASS + """

def producer(q):
    q.sim.race_write("queue.items")
    q.bare_push(1)
"""})
    assert "RPC004" not in codes_of(found)


def test_uninstrumented_class_is_out_of_scope(make_pkg):
    found = check(make_pkg, {"a.py": """
        class Plain:
            def push(self, x):
                self.items.append(x)
        """})
    assert "RPC004" not in codes_of(found)


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
    found, _g, _a, _d = check_package(root)
    baseline = {v.fingerprint(): 1 for v in found}
    result = run_check(root, baseline=baseline)
    assert result.clean
    assert len(result.baselined) == len(found)
    # a new violation is NOT covered by the old baseline
    result = run_check(root, baseline={})
    assert not result.clean


# ---------------------------------------------------------------------------
# dead-code report
# ---------------------------------------------------------------------------

def test_dead_code_reported_and_all_annotations_respected(make_pkg):
    graph = build_package(make_pkg({"a.py": """
        __all__ = ["entry", "Exported"]

        def entry():
            helper()

        def helper():
            pass

        def orphan():
            pass

        class Exported:
            def api_method(self):
                pass

        class Internal:
            def unused_method(self):
                pass
        """}))
    dead = {f.qname for f in dead_public_functions(graph)}
    assert "pkg.a.orphan" in dead
    assert "pkg.a.Internal.unused_method" in dead
    assert "pkg.a.entry" not in dead          # __all__ root
    assert "pkg.a.helper" not in dead         # reachable from entry
    assert "pkg.a.Exported.api_method" not in dead   # exported class API


# ---------------------------------------------------------------------------
# the whole catalog through the CLI
# ---------------------------------------------------------------------------

ONE_OF_EACH = """
import random
import time


class Metrics:
    def on_record(self, rec):
        time.sleep(0.1)                    # RPC001: blocks in a callback

    def attach(self, trace):
        trace.subscribe(self.on_record)


def stamp():
    return time.time()                     # RPC002


def jitter():
    return random.random()                 # RPC003


class Queue:
    def __init__(self, sim):
        self.sim = sim
        self.items = []

    def guarded_push(self, x):
        self.sim.race_write("queue.items")
        self.items.append(x)

    def bare_push(self, x):
        self.items.append(x)               # RPC004


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
