"""Call-graph construction on small fixture packages (and, for the
callback roots the contracts rely on, on ``repro`` itself)."""

import os

import repro
from repro.analysis.static.callgraph import build_package, iter_functions


def edges(graph, caller, kind=None):
    out = graph.calls_from(caller)
    if kind is not None:
        out = [e for e in out if e.kind == kind]
    return {e.callee for e in out}


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_direct_call_edge(make_pkg):
    root = make_pkg({"a.py": """
        def helper():
            return 1

        def caller():
            return helper()
        """})
    graph = build_package(root)
    assert "pkg.a.helper" in edges(graph, "pkg.a.caller", kind="call")


def test_module_level_code_is_a_pseudo_function(make_pkg):
    root = make_pkg({"a.py": """
        def init():
            pass

        init()
        """})
    graph = build_package(root)
    assert "pkg.a.init" in edges(graph, "pkg.a.<module>", kind="call")


def test_all_exports_are_extracted(make_pkg):
    root = make_pkg({"a.py": """
        __all__ = ["fn", "Klass"]

        def fn():
            pass

        class Klass:
            pass
        """})
    graph = build_package(root)
    assert graph.modules["pkg.a"].exports == ("fn", "Klass")


def test_iter_functions_skips_module_entries(make_pkg):
    root = make_pkg({"a.py": "def fn():\n    pass\n"})
    graph = build_package(root)
    names = [f.qname for f in iter_functions(graph)]
    assert names == ["pkg.a.fn"]


# ---------------------------------------------------------------------------
# imports and re-exports
# ---------------------------------------------------------------------------

def test_cross_module_import_resolves(make_pkg):
    root = make_pkg({
        "a.py": "def fn():\n    pass\n",
        "b.py": """
        from pkg.a import fn

        def caller():
            fn()
        """})
    graph = build_package(root)
    assert "pkg.a.fn" in edges(graph, "pkg.b.caller", kind="call")


def test_reexport_chain_resolves(make_pkg):
    root = make_pkg({
        "__init__.py": "from pkg.a import fn\n",
        "a.py": "def fn():\n    pass\n",
        "b.py": """
        from pkg import fn

        def caller():
            fn()
        """})
    graph = build_package(root)
    assert "pkg.a.fn" in edges(graph, "pkg.b.caller", kind="call")


def test_relative_import_resolves(make_pkg):
    root = make_pkg({
        "sub/__init__.py": "",
        "sub/a.py": "def fn():\n    pass\n",
        "sub/b.py": """
        from .a import fn

        def caller():
            fn()
        """})
    graph = build_package(root)
    assert "pkg.sub.a.fn" in edges(graph, "pkg.sub.b.caller", kind="call")


def test_aliased_import_resolves(make_pkg):
    root = make_pkg({
        "a.py": "def fn():\n    pass\n",
        "b.py": """
        from pkg.a import fn as other

        def caller():
            other()
        """})
    graph = build_package(root)
    assert "pkg.a.fn" in edges(graph, "pkg.b.caller", kind="call")


# ---------------------------------------------------------------------------
# methods and dispatch
# ---------------------------------------------------------------------------

def test_self_method_call_resolves(make_pkg):
    root = make_pkg({"a.py": """
        class C:
            def target(self):
                pass

            def caller(self):
                self.target()
        """})
    graph = build_package(root)
    assert "pkg.a.C.target" in edges(graph, "pkg.a.C.caller", kind="call")


def test_self_dispatch_includes_subclass_overrides(make_pkg):
    root = make_pkg({"a.py": """
        class Base:
            def hook(self):
                pass

            def caller(self):
                self.hook()

        class Child(Base):
            def hook(self):
                pass
        """})
    graph = build_package(root)
    callees = edges(graph, "pkg.a.Base.caller", kind="call")
    assert {"pkg.a.Base.hook", "pkg.a.Child.hook"} <= callees


def test_inherited_method_resolves_through_base(make_pkg):
    root = make_pkg({"a.py": """
        class Base:
            def helper(self):
                pass

        class Child(Base):
            def caller(self):
                self.helper()
        """})
    graph = build_package(root)
    assert "pkg.a.Base.helper" in edges(graph, "pkg.a.Child.caller",
                                        kind="call")


def test_unknown_receiver_falls_back_to_by_name(make_pkg):
    root = make_pkg({"a.py": """
        class C:
            def poke(self):
                pass

        def caller(obj):
            obj.poke()
        """})
    graph = build_package(root)
    assert "pkg.a.C.poke" in edges(graph, "pkg.a.caller", kind="call")


def test_instantiation_reaches_init(make_pkg):
    root = make_pkg({"a.py": """
        class C:
            def __init__(self):
                pass

        def caller():
            C()
        """})
    graph = build_package(root)
    assert "pkg.a.C.__init__" in edges(graph, "pkg.a.caller", kind="call")


# ---------------------------------------------------------------------------
# refs: decorators, callbacks, lambdas
# ---------------------------------------------------------------------------

def test_decorator_produces_ref_edge(make_pkg):
    root = make_pkg({"a.py": """
        def deco(fn):
            return fn

        @deco
        def decorated():
            pass
        """})
    graph = build_package(root)
    assert "pkg.a.deco" in edges(graph, "pkg.a.<module>")


def test_callback_registration_is_captured(make_pkg):
    root = make_pkg({"a.py": """
        class Listener:
            def on_record(self, rec):
                pass

            def attach(self, trace):
                trace.subscribe(self.on_record)
        """})
    graph = build_package(root)
    regs = [(r.via, r.callback) for r in graph.registrations]
    assert ("subscribe", "pkg.a.Listener.on_record") in regs


def test_category_routed_registration_is_captured(make_pkg):
    root = make_pkg({"a.py": """
        class Listener:
            def on_record(self, rec):
                pass

            def attach(self, trace):
                trace.subscribe(self.on_record, categories=("nic.tx",))
        """})
    graph = build_package(root)
    regs = [(r.via, r.callback) for r in graph.registrations]
    assert ("subscribe", "pkg.a.Listener.on_record") in regs


def test_trace_metrics_feed_is_a_callback_root():
    # RPC001 reaches the live metrics feed only through this registration
    graph = build_package(os.path.dirname(repro.__file__))
    regs = {(r.via, r.callback) for r in graph.registrations}
    assert ("subscribe",
            "repro.observability.metrics.TraceMetrics.on_record") in regs


def test_function_passed_as_argument_is_a_ref(make_pkg):
    root = make_pkg({"a.py": """
        def callback():
            pass

        def caller(runner):
            runner.go(callback)
        """})
    graph = build_package(root)
    ref_edges = edges(graph, "pkg.a.caller", kind="ref")
    assert "pkg.a.callback" in ref_edges


def test_named_lambda_is_a_function(make_pkg):
    root = make_pkg({"a.py": "double = lambda x: x * 2\n"})
    graph = build_package(root)
    assert "pkg.a.double" in graph.functions
    assert graph.functions["pkg.a.double"].is_lambda


def test_inline_lambda_body_belongs_to_the_lambda(make_pkg):
    root = make_pkg({"a.py": """
        def target():
            pass

        def caller(runner):
            runner.later(lambda: target())
        """})
    graph = build_package(root)
    # the call edge to target hangs off the lambda, not off caller
    assert "pkg.a.target" not in edges(graph, "pkg.a.caller", kind="call")
    lambdas = [q for q in graph.functions if "<lambda@" in q]
    assert any("pkg.a.target" in edges(graph, q, kind="call")
               for q in lambdas)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def test_reachable_walks_transitively(make_pkg):
    root = make_pkg({"a.py": """
        def c():
            pass

        def b():
            c()

        def a():
            b()

        def orphan():
            pass
        """})
    graph = build_package(root)
    live = graph.reachable(["pkg.a.a"])
    assert {"pkg.a.a", "pkg.a.b", "pkg.a.c"} <= live
    assert "pkg.a.orphan" not in live
