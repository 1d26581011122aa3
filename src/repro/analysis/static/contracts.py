"""Package-wide contract passes over the effect-annotated call graph.

Each pass yields :class:`~repro.analysis.reporting.Violation` findings
with stable RPC codes:

RPC001 callback-blocks
    A blocking/yielding effect is reachable from a non-process context:
    a ``Trace.subscribe``/``add_done_callback`` callback or a strategy
    ``_shares`` hook.  These run inline in the engine or in a
    subscriber sweep — suspending or re-entering the scheduler there
    deadlocks or corrupts simulated time.
RPC002 raw-clock-escape
    A host wall-clock read outside the audited
    ``repro.simulator.hostclock`` funnel — resolved through import
    aliases, so wrappers cannot launder ``time.time``.
RPC003 stray-rng
    A process-global RNG draw outside the seeded
    ``repro.simulator.rng.rng_stream`` funnel.
RPC004 unguarded-shared-write
    In a race-instrumented class, a method mutates shared ``self``
    state with no ``race_write``/``sync_region`` in its own body nor in
    every in-package caller — a coverage gap the dynamic detector
    cannot see.
RPC005 unregistered-category
    A trace emission whose literal category is missing from
    ``observability/taxonomy.py``.
RPC006 dead-taxonomy
    A taxonomy category no category-like literal in the package ever
    mentions (indirect emission via ``functools.partial`` counts — any
    literal occurrence is accepted as evidence of life).
RPC007 iteration-order
    Iteration over an unordered ``set`` (or sorting by ``id()``): a
    hash-seed / allocation dependent order that diverges between runs
    once it feeds the event schedule.
RPC008 float-eq-time
    ``==`` / ``!=`` between simulated timestamps: accumulated floats
    compare equal until a cost model changes rounding, then silently
    flip.
RPC009 mutable-default
    A mutable default argument, shared across calls and so across
    back-to-back simulation runs in one process.
RPC010 timer-for-a-charge
    ``yield <expr>.timeout(<delay>)`` outside the simulator package: a
    CPU charge yielded on the spot is a bare ``float`` delay (one heap
    entry), not a timer Event (DESIGN.md §7, hot-path rule 4).

RPC007–RPC010 are per-module passes over the trees the call graph
already parsed; the rest read the propagated effects.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.reporting import Violation, normalize_path
from repro.analysis.static.callgraph import (CallGraph, FunctionInfo,
                                             _dotted)
from repro.analysis.static.effects import (BLOCKS, MUTATES_SHARED, RAW_CLOCK,
                                           RAW_RNG, YIELDS, EffectAnalysis,
                                           _category_like)

__all__ = ["CONTRACTS", "contract_catalog", "run_contracts",
           "dead_public_functions"]

Finding = Tuple[int, int, str]  # (line, col, message)

#: (code, summary) — the full catalog, stable order
CONTRACTS: Tuple[Tuple[str, str], ...] = (
    ("RPC001", "blocking or yielding effect reachable from a "
               "non-process callback context"),
    ("RPC002", "host wall-clock read outside the audited hostclock "
               "funnel (alias-resolved)"),
    ("RPC003", "process-global RNG draw outside the seeded rng_stream "
               "funnel"),
    ("RPC004", "shared-state write in a race-instrumented class with no "
               "instrumentation coverage"),
    ("RPC005", "trace emission with a category missing from the "
               "taxonomy registry"),
    ("RPC006", "taxonomy category never mentioned by any literal in "
               "the package"),
    ("RPC007", "iteration-order hazard (unordered set / id() ordering)"),
    ("RPC008", "float equality on simulated timestamps"),
    ("RPC009", "mutable default argument"),
    ("RPC010", "timer Event yielded on the spot where a bare float "
               "delay is the rule"),
)

#: per-code, package-relative path suffixes exempt from that contract
#: (the audited funnels themselves); one ending in ``/`` exempts a
#: whole sub-package
ALLOW_PATHS: Dict[str, Tuple[str, ...]] = {
    "RPC002": ("simulator/hostclock.py",),
    "RPC003": ("simulator/rng.py",),
    "RPC010": ("simulator/",),
}

#: method names that are callback hooks by convention even without a
#: visible registration site
HOOK_METHOD_NAMES = ("_shares",)


def contract_catalog() -> List[Tuple[str, str]]:
    return list(CONTRACTS)


def _allowed(code: str, path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(("/" + entry in posix) if entry.endswith("/")
               else posix.endswith(entry)
               for entry in ALLOW_PATHS.get(code, ()))


def _snippet(graph: CallGraph, path: str, line: int) -> str:
    for name in sorted(graph.modules):
        mod = graph.modules[name]
        if mod.path == path:
            if 0 < line <= len(mod.lines):
                return mod.lines[line - 1].strip()
            return ""
    return ""


def _violation(graph: CallGraph, path: str, line: int, col: int,
               code: str, message: str) -> Violation:
    return Violation(path=path, line=line, col=col, code=code,
                     message=message,
                     snippet=_snippet(graph, path, line))


# ----------------------------------------------------------------------
# RPC001 — no blocking/yielding reachable from callback contexts
# ----------------------------------------------------------------------
def _callback_roots(graph: CallGraph,
                    ) -> List[Tuple[str, str, str, int]]:
    """(callback qname, how-registered, report path, report line)."""
    roots: List[Tuple[str, str, str, int]] = []
    seen: Set[Tuple[str, str]] = set()
    for reg in graph.registrations:
        key = (reg.callback, reg.via)
        if key in seen:
            continue
        seen.add(key)
        roots.append((reg.callback, f"registered via .{reg.via}()",
                      reg.path, reg.line))
    for name in HOOK_METHOD_NAMES:
        for qname in graph.methods_named(name):
            info = graph.functions[qname]
            roots.append((qname, f"strategy {name} hook",
                          info.path, info.line))
    return roots


def _check_callbacks(graph: CallGraph,
                     analysis: EffectAnalysis) -> Iterator[Violation]:
    for callback, how, path, line in _callback_roots(graph):
        fx = analysis.functions.get(callback)
        if fx is None:
            continue
        for effect, verb in ((BLOCKS, "block the host"),
                             (YIELDS, "yield to the scheduler")):
            if effect not in fx.out:
                continue
            chain = analysis.chain(callback, effect)
            via = " -> ".join(q.rsplit(".", 1)[-1] if "." in q else q
                              for q in chain)
            yield _violation(
                graph, path, line, 0, "RPC001",
                f"callback '{callback}' ({how}) can {verb}: {via}")
            break     # one finding per root is enough


# ----------------------------------------------------------------------
# RPC002 / RPC003 — funnel escapes
# ----------------------------------------------------------------------
def _check_funnels(graph: CallGraph,
                   analysis: EffectAnalysis) -> Iterator[Violation]:
    specs = (("RPC002", RAW_CLOCK,
              "read via the repro.simulator.hostclock.host_clock funnel"),
             ("RPC003", RAW_RNG,
              "draw via repro.simulator.rng.rng_stream(seed, *key)"))
    for qname in sorted(analysis.functions):
        info = graph.functions[qname]
        fx = analysis.functions[qname]
        for code, effect, fix in specs:
            if effect not in fx.local or _allowed(code, info.path):
                continue
            via, line = fx.witness.get(effect, ("", info.line))
            what = via or "a raw call"
            yield _violation(
                graph, info.path, line, 0, code,
                f"'{qname}' calls {what} outside the audited funnel; "
                f"{fix}")


# ----------------------------------------------------------------------
# RPC004 — race-instrumentation coverage
# ----------------------------------------------------------------------
def _race_aware_classes(graph: CallGraph,
                        analysis: EffectAnalysis) -> Set[str]:
    """Classes where at least one own method is race-instrumented."""
    aware: Set[str] = set()
    for cls_qname in sorted(graph.classes):
        for name in sorted(graph.classes[cls_qname].methods):
            method = graph.classes[cls_qname].methods[name]
            fx = analysis.functions.get(method.qname)
            if fx is not None and fx.instrumented:
                aware.add(cls_qname)
                break
    return aware


def _check_shared_writes(graph: CallGraph,
                         analysis: EffectAnalysis) -> Iterator[Violation]:
    aware = _race_aware_classes(graph, analysis)
    for cls_qname in sorted(aware):
        cls = graph.classes[cls_qname]
        for name in sorted(cls.methods):
            method = cls.methods[name]
            if method.is_dunder:
                continue
            fx = analysis.functions.get(method.qname)
            if fx is None or MUTATES_SHARED not in fx.local \
                    or fx.instrumented:
                continue
            callers = [e for e in graph.calls_to(method.qname)
                       if e.kind == "call"]
            if callers and all(
                    analysis.functions[e.caller].instrumented
                    for e in callers
                    if e.caller in analysis.functions):
                continue          # every call site covers the write
            for line, what in fx.mutations:
                yield _violation(
                    graph, method.path, line, 0, "RPC004",
                    f"'{method.qname}' writes shared state ({what}) in "
                    f"race-instrumented class '{cls.name}' with no "
                    f"race_write()/sync_region() in body or callers")


# ----------------------------------------------------------------------
# RPC005 / RPC006 — trace taxonomy contract
# ----------------------------------------------------------------------
def _taxonomy_module(graph: CallGraph) -> Optional[str]:
    target = f"{graph.package}.observability.taxonomy"
    return target if target in graph.modules else None


def _registered_categories(graph: CallGraph,
                           taxonomy: str) -> Dict[str, int]:
    """category -> taxonomy source line, from the CATEGORIES literal."""
    mod = graph.modules[taxonomy]
    out: Dict[str, int] = {}
    for node in mod.tree.body:
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id == "CATEGORIES":
            value = node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "CATEGORIES":
            value = node.value
        if isinstance(value, ast.Dict):
            for key in value.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    out[key.value] = key.lineno
    return out


def _literal_mentions(graph: CallGraph, taxonomy: str) -> Set[str]:
    """Every category-like string literal outside the taxonomy module."""
    mentions: Set[str] = set()
    for name in sorted(graph.modules):
        if name == taxonomy:
            continue
        for node in ast.walk(graph.modules[name].tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _category_like(node.value):
                mentions.add(node.value)
    return mentions


def _check_taxonomy(graph: CallGraph,
                    analysis: EffectAnalysis) -> Iterator[Violation]:
    taxonomy = _taxonomy_module(graph)
    if taxonomy is None:
        return
    registered = _registered_categories(graph, taxonomy)
    tax_mod = graph.modules[taxonomy]

    for qname in sorted(analysis.functions):
        info = graph.functions[qname]
        if info.module == taxonomy:
            continue
        for category, line in analysis.functions[qname].categories:
            if category in registered:
                continue
            root = category.split(".", 1)[0]
            yield _violation(
                graph, info.path, line, 0, "RPC005",
                f"category '{category}' (root '{root}') is not "
                f"registered in observability/taxonomy.py")

    mentions = _literal_mentions(graph, taxonomy)
    for category in sorted(registered):
        if category in mentions:
            continue
        yield _violation(
            graph, tax_mod.path, registered[category], 0, "RPC006",
            f"taxonomy category '{category}' is never mentioned by any "
            f"literal in the package (dead registry entry)")


# ----------------------------------------------------------------------
# RPC007 — iteration order
# ----------------------------------------------------------------------
def _is_set_expr(node: ast.AST, setvars: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        d = _dotted(node.func)
        return d in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in setvars
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        return (_is_set_expr(node.left, setvars)
                or _is_set_expr(node.right, setvars))
    return False


def _iter_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Child nodes in source order; nested defs are yielded (so the
    scanner can queue them) but not descended into."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield from _iter_scope(child)


def _scan_scope(body: List[ast.stmt],
                inherited: frozenset = frozenset()) -> Iterator[Finding]:
    setvars: Set[str] = set(inherited)
    # (nested def, closed-over set vars at its definition point)
    nested: List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef,
                       frozenset]] = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append((stmt, frozenset(setvars)))
            continue
        for node in [stmt] + list(_iter_scope(stmt)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.append((node, frozenset(setvars)))
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if _is_set_expr(node.value, setvars):
                    setvars.add(name)
                else:
                    setvars.discard(name)
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if _is_set_expr(it, setvars):
                    what = it.id if isinstance(it, ast.Name) else "a set"
                    yield (it.lineno, it.col_offset,
                           f"iterating unordered set {what!r}; wrap in "
                           f"sorted(...) before it reaches the schedule")
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "key" and isinstance(kw.value, ast.Name) \
                            and kw.value.id == "id":
                        yield (node.lineno, node.col_offset,
                               "ordering by id() is allocation-dependent "
                               "and differs between runs")
    for fn, snapshot in nested:
        yield from _scan_scope(fn.body, snapshot)


def _iteration_order(tree: ast.Module) -> Iterator[Finding]:
    yield from _scan_scope(tree.body)


# ----------------------------------------------------------------------
# RPC008 — float equality on simulated timestamps
# ----------------------------------------------------------------------
_TIME_NAMES = frozenset({"now", "arrival", "deadline", "timestamp",
                         "t0", "t1"})
_TIME_SUFFIXES = ("_time", "_at", "_deadline", "_arrival", "_since")


def _timey(node: ast.AST) -> Optional[str]:
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name and (name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)):
        return name
    return None


def _float_eq_time(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        if any(isinstance(o, ast.Constant) and o.value is None
               for o in operands):
            continue  # `x == None` is a different lint's problem
        for operand in operands:
            name = _timey(operand)
            if name:
                yield (node.lineno, node.col_offset,
                       f"float equality on simulated timestamp {name!r}; "
                       f"use an ordering or an explicit tolerance")
                break


# ----------------------------------------------------------------------
# RPC009 — mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "deque", "defaultdict",
                            "collections.deque", "collections.defaultdict",
                            "collections.OrderedDict", "OrderedDict"})


def _mutable(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _dotted(node.func) in _MUTABLE_CTORS
    return False


def _mutable_defaults(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _mutable(default):
                yield (default.lineno, default.col_offset,
                       "mutable default argument is shared across calls "
                       "(and across simulation runs); default to None")


# ----------------------------------------------------------------------
# RPC010 — a charge yielded on the spot is a bare delay
# ----------------------------------------------------------------------
def _timer_for_a_charge(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Yield):
            continue
        call = node.value
        if (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "timeout"
                and len(call.args) == 1 and not call.keywords):
            yield (node.lineno, node.col_offset,
                   "timer Event yielded on the spot; yield the delay "
                   "itself (a float) — one heap entry, no Event")


_MODULE_PASSES = (("RPC007", _iteration_order),
                  ("RPC008", _float_eq_time),
                  ("RPC009", _mutable_defaults),
                  ("RPC010", _timer_for_a_charge))


def _check_modules(graph: CallGraph,
                   analysis: EffectAnalysis) -> Iterator[Violation]:
    for name in sorted(graph.modules):
        mod = graph.modules[name]
        for code, scan in _MODULE_PASSES:
            if _allowed(code, mod.path):
                continue
            for line, col, message in scan(mod.tree):
                yield _violation(graph, mod.path, line, col, code, message)


# ----------------------------------------------------------------------
# Dead-code report (advisory, not part of the exit-status contracts)
# ----------------------------------------------------------------------
def dead_public_functions(graph: CallGraph) -> List[FunctionInfo]:
    """Public functions unreachable from module bodies and exports.

    Roots: every module's top-level code, every ``__all__`` export and
    every dunder.  Methods additionally stay alive when their bare name
    is mentioned as an attribute anywhere (conservative dynamic-dispatch
    evidence), or when their class is named in its module's ``__all__``
    — an exported class's public methods are declared API surface.
    Advisory only — dynamic imports (``importlib``) and out-of-package
    callers (tests, notebooks) are invisible here.
    """
    roots: List[str] = []
    for name in sorted(graph.modules):
        roots.append(graph.module_entry(name))
        mod = graph.modules[name]
        for export in mod.exports:
            candidate = f"{name}.{export}"
            if candidate in graph.functions:
                roots.append(candidate)
            resolved = _export_target(graph, name, export)
            if resolved is not None:
                roots.append(resolved)
    for qname in sorted(graph.functions):
        if graph.functions[qname].is_dunder:
            roots.append(qname)
    live = graph.reachable(roots)
    dead: List[FunctionInfo] = []
    for qname in sorted(graph.functions):
        info = graph.functions[qname]
        if qname in live or not info.is_public or info.is_lambda \
                or info.name == "<module>":
            continue
        if info.name in graph.mentioned_names:
            continue
        if info.cls is not None and _class_exported(graph, info):
            continue
        dead.append(info)
    return dead


def _class_exported(graph: CallGraph, info: FunctionInfo) -> bool:
    mod = graph.modules.get(info.module)
    if mod is None or info.cls is None:
        return False
    return info.cls.rsplit(".", 1)[-1] in mod.exports


def _export_target(graph: CallGraph, module: str,
                   export: str) -> Optional[str]:
    mod = graph.modules[module]
    target = mod.imports.get(export)
    if target is not None and target in graph.functions:
        return target
    if target is not None and target in graph.classes:
        inits = graph.overrides_of(target, "__init__")
        return inits[0] if inits else None
    return None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_contracts(graph: CallGraph,
                  analysis: EffectAnalysis) -> List[Violation]:
    """All contract passes, deterministically ordered."""
    found: List[Violation] = []
    for check in (_check_callbacks, _check_funnels, _check_shared_writes,
                  _check_taxonomy, _check_modules):
        found.extend(check(graph, analysis))
    found.sort(key=lambda v: (normalize_path(v.path), v.line, v.code,
                              v.message))
    return found
