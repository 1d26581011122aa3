"""Per-function effect inference and interprocedural propagation.

Every function in the :class:`~repro.analysis.static.callgraph.CallGraph`
gets a *local* effect set from its own body, then a fixpoint worklist
propagates callee effects to callers along resolved ``call`` edges:

``RAW_CLOCK``
    a host wall-clock read (``time.time``, ``datetime.now``, ...),
    resolved through import aliases — ``from time import time as now``
    or ``import time as clock`` does not hide it.
``RAW_RNG``
    a draw from process-global randomness (``random.*``,
    ``numpy.random.*`` legacy globals).
``HOST_CLOCK`` / ``RNG_STREAM``
    the audited funnels.  The funnel functions *absorb* their raw
    effect: callers of ``host_clock()`` see ``HOST_CLOCK``, never
    ``RAW_CLOCK``, so debt cannot leak out of the audited module.
``YIELDS``
    the body is a generator (contains ``yield``) — a simulation
    process.  Calling a generator function executes nothing, so **no**
    effects propagate through a call edge into a generator; its effects
    only matter once the engine drives it as a process.
``BLOCKS``
    host-blocking: ``time.sleep`` or re-entering the scheduler
    (``Simulator.run`` / ``Simulator.step``).
``TRACE_EMIT``
    emits trace records (category literals collected separately).
``MUTATES_SHARED`` / ``RACE_INSTRUMENTED``
    container mutation through ``self`` outside ``__init__`` /
    presence of ``race_read``/``race_write``/``sync_region`` calls —
    the raw material for the race-coverage contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.static.callgraph import CallGraph, FunctionInfo, _dotted

__all__ = ["RAW_CLOCK", "RAW_RNG", "HOST_CLOCK", "RNG_STREAM", "YIELDS",
           "BLOCKS", "TRACE_EMIT", "MUTATES_SHARED", "RACE_INSTRUMENTED",
           "FunctionEffects", "EffectAnalysis", "own_nodes"]

RAW_CLOCK = "RAW_CLOCK"
RAW_RNG = "RAW_RNG"
HOST_CLOCK = "HOST_CLOCK"
RNG_STREAM = "RNG_STREAM"
YIELDS = "YIELDS"
BLOCKS = "BLOCKS"
TRACE_EMIT = "TRACE_EMIT"
MUTATES_SHARED = "MUTATES_SHARED"
RACE_INSTRUMENTED = "RACE_INSTRUMENTED"

#: external dotted names that read the host wall clock, matched after
#: import-alias resolution
RAW_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: external dotted names that block the host thread
BLOCKING_CALLS = frozenset({"time.sleep"})

#: dotted-prefix matches for process-global RNG draws
RAW_RNG_PREFIXES = ("random.", "numpy.random.", "np.random.")

#: audited funnel functions and the effect they absorb into
FUNNEL_SUFFIXES: Dict[str, Tuple[str, str]] = {
    "simulator.hostclock.host_clock": (RAW_CLOCK, HOST_CLOCK),
    "simulator.rng.rng_stream": (RAW_RNG, RNG_STREAM),
}

#: in-package functions that re-enter the scheduler (host-blocking from
#: any non-process context)
BLOCKING_QNAME_SUFFIXES = (
    "simulator.engine.Simulator.run",
    "simulator.engine.Simulator.step",
)

#: method names that mutate their receiver container in place
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "add", "insert", "remove",
    "discard", "pop", "popleft", "popitem", "update", "clear",
    "setdefault", "push",
})

_RACE_HOOKS = frozenset({"race_read", "race_write", "sync_region"})

_TRACE_METHODS = frozenset({"record", "count", "filter"})


@dataclass
class FunctionEffects:
    """Inferred effects of one function."""

    local: Set[str] = field(default_factory=set)
    #: transitive effects after propagation + funnel absorption
    out: Set[str] = field(default_factory=set)
    #: effect -> (via, line): ``via`` is the callee qname (or the raw
    #: external name) the effect arrived through; empty = local origin
    witness: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: (category literal, line) of every trace emission in the body
    categories: List[Tuple[str, int]] = field(default_factory=list)
    #: (line, description) of shared-container writes through ``self``
    mutations: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def is_generator(self) -> bool:
        return YIELDS in self.local

    @property
    def instrumented(self) -> bool:
        return RACE_INSTRUMENTED in self.local


def own_nodes(info: FunctionInfo) -> Iterator[ast.AST]:
    """AST nodes of ``info``'s own body, not descending into nested
    function/class/lambda scopes (those are separate graph nodes)."""
    node = info.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
        stack: List[ast.AST] = list(node.body)
    elif isinstance(node, ast.Lambda):
        stack = [node.body]
    else:                                                # pragma: no cover
        stack = []
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Lambda)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _external_name(imports: Dict[str, str], dotted: str) -> str:
    """Rewrite the head of ``dotted`` through the module's import map so
    aliased externals (``from time import time as now``) still match."""
    head, _, rest = dotted.partition(".")
    target = imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _category_like(value: str) -> bool:
    """Looks like ``layer.event_name``, in any case (``Nmad.Bogus`` is a
    typo to flag, not a string to ignore)."""
    return "." in value and value.replace(".", "").replace("_", "").isalnum()


class EffectAnalysis:
    """Local inference + worklist propagation over a call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.functions: Dict[str, FunctionEffects] = {}
        self._funnels: Dict[str, Tuple[str, str]] = {}
        self._run()

    # -- public queries -------------------------------------------------
    def effects(self, qname: str) -> FunctionEffects:
        return self.functions[qname]

    def is_funnel(self, qname: str) -> bool:
        return qname in self._funnels

    def chain(self, qname: str, effect: str, limit: int = 12) -> List[str]:
        """Witness path from ``qname`` down to the effect's origin."""
        path = [qname]
        current = qname
        while len(path) < limit:
            fx = self.functions.get(current)
            if fx is None:
                break
            via = fx.witness.get(effect, ("", 0))[0]
            if not via:
                break
            path.append(via)
            if via not in self.functions:
                break                     # external name: terminal
            current = via
        return path

    # -- construction ---------------------------------------------------
    def _run(self) -> None:
        graph = self.graph
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            for suffix, absorb in sorted(FUNNEL_SUFFIXES.items()):
                if qname == f"{graph.package}.{suffix}":
                    self._funnels[qname] = absorb
            self.functions[qname] = self._infer_local(info)
        for suffix in BLOCKING_QNAME_SUFFIXES:
            qname = f"{graph.package}.{suffix}"
            fx = self.functions.get(qname)
            if fx is not None and BLOCKS not in fx.local:
                fx.local.add(BLOCKS)
                fx.witness.setdefault(
                    BLOCKS, ("", graph.functions[qname].line))
        self._propagate()

    def _infer_local(self, info: FunctionInfo) -> FunctionEffects:
        fx = FunctionEffects()
        mod = self.graph.modules.get(info.module)
        imports = mod.imports if mod is not None else {}
        for node in own_nodes(info):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                fx.local.add(YIELDS)
                fx.witness.setdefault(YIELDS, ("", node.lineno))
            elif isinstance(node, ast.Call):
                self._infer_call(info, fx, imports, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                self._infer_mutation(info, fx, node)
        return fx

    def _infer_call(self, info: FunctionInfo, fx: FunctionEffects,
                    imports: Dict[str, str], node: ast.Call) -> None:
        dotted = _dotted(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) \
            else dotted
        if dotted is not None:
            external = _external_name(imports, dotted)
            if external in RAW_CLOCK_CALLS:
                fx.local.add(RAW_CLOCK)
                fx.witness.setdefault(RAW_CLOCK, (external, node.lineno))
            elif external in BLOCKING_CALLS:
                fx.local.add(BLOCKS)
                fx.witness.setdefault(BLOCKS, (external, node.lineno))
            elif external.startswith(RAW_RNG_PREFIXES):
                fx.local.add(RAW_RNG)
                fx.witness.setdefault(RAW_RNG, (external, node.lineno))
        if attr in _RACE_HOOKS:
            fx.local.add(RACE_INSTRUMENTED)
            fx.witness.setdefault(RACE_INSTRUMENTED, ("", node.lineno))
        if attr in _TRACE_METHODS and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str) \
                    and _category_like(first.value):
                fx.local.add(TRACE_EMIT)
                fx.witness.setdefault(TRACE_EMIT, ("", node.lineno))
                fx.categories.append((first.value, node.lineno))
        # in-place container mutation through self (self.x.append(v))
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            receiver = _dotted(node.func.value)
            if receiver is not None and receiver.startswith("self.") \
                    and info.name not in ("__init__", "__new__", "reset"):
                fx.local.add(MUTATES_SHARED)
                fx.mutations.append(
                    (node.lineno, f"{receiver}.{node.func.attr}"))

    def _infer_mutation(self, info: FunctionInfo, fx: FunctionEffects,
                        node: ast.Assign | ast.AugAssign | ast.Delete,
                        ) -> None:
        if info.cls is None or info.name in ("__init__", "__new__", "reset"):
            return
        if isinstance(node, ast.Assign):
            targets: List[ast.expr] = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = list(node.targets)
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            receiver = _dotted(target.value)
            if receiver is not None and receiver.startswith("self."):
                fx.local.add(MUTATES_SHARED)
                fx.mutations.append((node.lineno, f"{receiver}[...]"))

    # -- propagation ----------------------------------------------------
    def _exported(self, qname: str) -> Set[str]:
        """Effects ``qname`` contributes to a caller.

        Generators contribute nothing (calling one executes no code);
        funnels swap their raw effect for the audited one.
        """
        fx = self.functions[qname]
        if fx.is_generator:
            return set()
        out = set(fx.out)
        absorb = self._funnels.get(qname)
        if absorb is not None:
            raw, funneled = absorb
            if raw in out:
                out.discard(raw)
                out.add(funneled)
        # receiver-local bookkeeping effects do not travel: a caller of
        # an instrumented/mutating method is not itself mutating
        out.discard(MUTATES_SHARED)
        out.discard(RACE_INSTRUMENTED)
        return out

    def _propagate(self) -> None:
        graph = self.graph
        for qname in sorted(self.functions):
            fx = self.functions[qname]
            fx.out = set(fx.local)
        worklist = sorted(self.functions)
        pending = set(worklist)
        while worklist:
            qname = worklist.pop()
            pending.discard(qname)
            contribution = self._exported(qname)
            if not contribution:
                continue
            for edge in graph.calls_to(qname):
                if edge.kind != "call":
                    continue
                caller_fx = self.functions.get(edge.caller)
                if caller_fx is None:
                    continue
                added = contribution - caller_fx.out
                if not added:
                    continue
                caller_fx.out |= added
                for effect in sorted(added):
                    caller_fx.witness.setdefault(
                        effect, (qname, edge.line))
                if edge.caller not in pending:
                    pending.add(edge.caller)
                    worklist.append(edge.caller)
