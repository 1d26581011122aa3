"""Per-module contract passes over the parsed package.

Every pass reads one module's syntax tree and yields
:class:`~repro.analysis.reporting.Violation` findings with stable RPC
codes.  Only the taxonomy round-trip (RPC005/RPC006) compares
across modules, and only string literals.

RPC001 generator-callback
    A callable registered via ``.subscribe(...)`` /
    ``.add_done_callback(...)``, or a strategy ``_shares`` hook, is a
    generator function.  These run inline in the engine or in a
    subscriber sweep; calling a generator runs none of its body, and a
    callback must not yield to the scheduler.  The registered callable
    is resolved in its own module: ``self.m`` of the enclosing class, a
    module-level ``def`` or a lambda.  Re-entering the scheduler from
    such a callback is a runtime :class:`SimulationError` raised by
    ``Simulator.run``/``step``.
RPC002 raw-clock-escape
    A host wall-clock read, or a host ``time.sleep``, outside the
    audited ``repro.simulator.hostclock`` funnel — resolved through the
    module's import aliases, so ``from time import time as now`` is
    still caught.
RPC003 stray-rng
    A process-global RNG draw outside the seeded
    ``repro.simulator.rng.rng_stream`` funnel (alias-resolved too).
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
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (DefaultDict, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.analysis.reporting import (Violation, normalize_path,
                                      parse_pragmas, suppressed_by_pragma)

__all__ = ["CONTRACTS", "Module", "Registration", "callback_registrations",
           "contract_catalog", "parse_package", "run_contracts"]

Finding = Tuple[int, int, str]  # (line, col, message)
Coded = Tuple[str, int, int, str]  # (code, line, col, message)

#: (code, summary) — the full catalog, stable order
CONTRACTS: Tuple[Tuple[str, str], ...] = (
    ("RPC001", "generator function registered as a callback "
               "(subscribe / add_done_callback) or strategy _shares hook"),
    ("RPC002", "host wall-clock read or host sleep outside the audited "
               "hostclock funnel (alias-resolved)"),
    ("RPC003", "process-global RNG draw outside the seeded rng_stream "
               "funnel"),
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

#: call attributes that register a callback run later from a
#: non-process context (trace subscribers, event done-callbacks)
CALLBACK_REGISTRARS = ("subscribe", "add_done_callback")

#: method names that are callback hooks by convention even without a
#: visible registration site
HOOK_METHOD_NAMES = ("_shares",)

#: external dotted names that read the host wall clock, matched after
#: import-alias resolution
RAW_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: dotted-prefix matches for process-global RNG draws
RAW_RNG_PREFIXES = ("random.", "numpy.random.", "np.random.")

_TRACE_METHODS = frozenset({"record", "count", "filter"})

_Def = (ast.FunctionDef, ast.AsyncFunctionDef)

#: node classes the indexer handles itself (scopes and imports)
_INDEXED = frozenset({*_Def, ast.ClassDef, ast.Import, ast.ImportFrom})


def contract_catalog() -> List[Tuple[str, str]]:
    return list(CONTRACTS)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
#: (node, owner, class): ``owner`` is the qualified name of the def
#: whose code the node runs in, ``class`` that of the innermost
#: enclosing class (or None)
_Scoped = Tuple[ast.AST, str, Optional[str]]


@dataclass
class Module:
    """One parsed source module and its lexical index."""

    name: str
    path: str
    tree: ast.Module
    lines: List[str]
    #: alias -> imported dotted name (absolute imports only)
    imports: Dict[str, str] = field(default_factory=dict)
    #: every node below the module (``ctx`` markers aside) with its
    #: lexical scope, binned by AST class
    nodes: DefaultDict[type, List[_Scoped]] = field(
        default_factory=lambda: defaultdict(list))
    #: class qualified name -> definition
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)


def _children(node: ast.AST) -> List[ast.AST]:
    """``ast.iter_child_nodes`` as a list, without the ``ctx`` markers
    (a plain loop: child iteration dominates a check's run time)."""
    out: List[ast.AST] = []
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, list):
            out.extend(child for child in value
                       if isinstance(child, ast.AST))
        elif isinstance(value, ast.AST) and name != "ctx":
            out.append(value)
    return out


def _index(mod: Module) -> None:
    """Fill ``mod.imports``, ``mod.nodes`` and ``mod.classes``."""
    bins = mod.nodes
    # one work item per lexical scope: (roots, owner, prefix, class)
    scopes: List[Tuple[List[ast.AST], str, str, Optional[str]]] = [
        (list(mod.tree.body), f"{mod.name}.<module>", mod.name, None)]
    while scopes:
        stack, owner, prefix, cls = scopes.pop()
        while stack:
            node = stack.pop()
            kind = type(node)
            bins[kind].append((node, owner, cls))
            if kind not in _INDEXED:
                stack.extend(_children(node))
            elif isinstance(node, _Def):
                name = f"{prefix}.{node.name}"
                scopes.append((_children(node), name, name, cls))
            elif isinstance(node, ast.ClassDef):
                name = f"{prefix}.{node.name}"
                mod.classes[name] = node
                scopes.append((_children(node), owner, name, name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    mod.imports[alias.asname or head] = \
                        alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    mod.imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"


def parse_package(root: str) -> List[Module]:
    """Parse every ``.py`` under the package directory ``root``.

    The package name is the directory's basename; modules come back in
    a deterministic (sorted walk) order.
    """
    root = os.path.abspath(root)
    package = os.path.basename(root.rstrip(os.sep))
    modules: List[Module] = []
    for dirpath, dirs, files in os.walk(root):
        dirs.sort()
        rel = os.path.relpath(dirpath, root)
        parts = [package] + ([] if rel == "." else rel.split(os.sep))
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            name = ".".join(parts if fname == "__init__.py"
                            else parts + [fname[:-3]])
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            mod = Module(name=name, path=path,
                         tree=ast.parse(source, filename=path),
                         lines=source.splitlines())
            _index(mod)
            modules.append(mod)
    return modules


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _external_name(imports: Dict[str, str], dotted: str) -> str:
    """Rewrite the head of ``dotted`` through the module's import map so
    aliased externals (``from time import time as now``) still match."""
    head, _, rest = dotted.partition(".")
    target = imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of a def's or lambda's own body, not descending into
    nested def/class/lambda scopes."""
    stack: List[ast.AST] = ([fn.body] if isinstance(fn, ast.Lambda)
                            else list(getattr(fn, "body", ())))
    while stack:
        node = stack.pop()
        if isinstance(node, (*_Def, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(_children(node))


def _is_generator(fn: ast.AST) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _own_nodes(fn))


def _methods(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    return {node.name: node for node in cls.body if isinstance(node, _Def)}


# ----------------------------------------------------------------------
# RPC001 — a callback is never a generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Registration:
    """A callable passed to a callback-registering call.

    ``via`` is the registering attribute (``subscribe``); ``callback``
    the qualified name of the registered def, or
    ``<owner>.<lambda@line>`` for a lambda.
    """

    via: str
    callback: str
    line: int
    node: ast.AST


def callback_registrations(mod: Module) -> List[Registration]:
    """Every registration in ``mod`` whose callable resolves lexically."""
    top = {node.name: node for node in mod.tree.body
           if isinstance(node, _Def)}
    found: List[Registration] = []
    for node, owner, cls in mod.nodes[ast.Call]:
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CALLBACK_REGISTRARS):
            continue
        via = node.func.attr
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                found.append(Registration(
                    via, f"{owner}.<lambda@{arg.lineno}>", node.lineno, arg))
                continue
            dotted = _dotted(arg)
            if dotted in top:
                found.append(Registration(
                    via, f"{mod.name}.{dotted}", node.lineno, top[dotted]))
            elif cls is not None and dotted is not None \
                    and dotted.startswith("self.") and dotted.count(".") == 1:
                method = _methods(mod.classes[cls]).get(dotted[5:])
                if method is not None:
                    found.append(Registration(
                        via, f"{cls}.{dotted[5:]}", node.lineno, method))
    return found


def _check_callbacks(mod: Module) -> Iterator[Coded]:
    roots = [(r.callback, f"registered via .{r.via}()", r.line, r.node)
             for r in callback_registrations(mod)]
    for cls_name, cls in mod.classes.items():
        for name in HOOK_METHOD_NAMES:
            hook = _methods(cls).get(name)
            if hook is not None:
                roots.append((f"{cls_name}.{name}", f"strategy {name} hook",
                              hook.lineno, hook))
    for callback, how, line, fn in roots:
        if _is_generator(fn):
            yield ("RPC001", line, 0,
                   f"callback '{callback}' ({how}) is a generator: calling "
                   f"it runs none of its body, and a callback must not "
                   f"yield to the scheduler")


# ----------------------------------------------------------------------
# RPC002 / RPC003 — funnel escapes
# ----------------------------------------------------------------------
def _check_funnels(mod: Module) -> Iterator[Coded]:
    for node, owner, _cls in mod.nodes[ast.Call]:
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        name = _external_name(mod.imports, dotted)
        if name in RAW_CLOCK_CALLS:
            yield ("RPC002", node.lineno, 0,
                   f"'{owner}' calls {name} outside the audited funnel; "
                   f"read via the repro.simulator.hostclock.host_clock "
                   f"funnel")
        elif name == "time.sleep":
            yield ("RPC002", node.lineno, 0,
                   f"'{owner}' calls time.sleep: a simulated component "
                   f"never blocks the host; yield a float delay to charge "
                   f"simulated time")
        elif name.startswith(RAW_RNG_PREFIXES):
            yield ("RPC003", node.lineno, 0,
                   f"'{owner}' calls {name} outside the audited funnel; "
                   f"draw via repro.simulator.rng.rng_stream(seed, *key)")


# ----------------------------------------------------------------------
# RPC005 / RPC006 — trace taxonomy contract
# ----------------------------------------------------------------------
def _category_like(value: str) -> bool:
    """Looks like ``layer.event_name``, in any case (``Nmad.Bogus`` is a
    typo to flag, not a string to ignore)."""
    return "." in value and value.replace(".", "").replace("_", "").isalnum()


def _registered_categories(taxonomy: Module) -> Dict[str, int]:
    """category -> taxonomy source line, from the CATEGORIES literal."""
    out: Dict[str, int] = {}
    for node in taxonomy.tree.body:
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


def _check_emissions(mod: Module, registered: Dict[str, int],
                     ) -> Iterator[Coded]:
    for node, _owner, _cls in mod.nodes[ast.Call]:
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else _dotted(func)
        first = node.args[0]
        if attr in _TRACE_METHODS and isinstance(first, ast.Constant) \
                and isinstance(first.value, str) \
                and _category_like(first.value) \
                and first.value not in registered:
            root = first.value.split(".", 1)[0]
            yield ("RPC005", node.lineno, 0,
                   f"category '{first.value}' (root '{root}') is not "
                   f"registered in observability/taxonomy.py")


def _check_dead_categories(modules: Sequence[Module], taxonomy: Module,
                           registered: Dict[str, int]) -> Iterator[Coded]:
    """RPC006: a category no literal outside the taxonomy mentions."""
    mentions = {node.value for mod in modules if mod is not taxonomy
                for node, _owner, _cls in mod.nodes[ast.Constant]
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _category_like(node.value)}
    for category, line in sorted(registered.items()):
        if category not in mentions:
            yield ("RPC006", line, 0,
                   f"taxonomy category '{category}' is never mentioned by "
                   f"any literal in the package (dead registry entry)")


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
    """Descendants in source order; nested defs are yielded (so the
    scanner can queue them) but not descended into."""
    stack = _children(node)[::-1]
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (*_Def, ast.Lambda)):
            stack.extend(_children(child)[::-1])


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


def _iteration_order(mod: Module) -> Iterator[Finding]:
    # a finding needs a set expression or a key= argument somewhere in
    # the module; most modules have neither and skip the ordered walk
    if mod.nodes[ast.Set] or mod.nodes[ast.SetComp] or any(
            _dotted(call.func) in ("set", "frozenset")
            or any(kw.arg == "key" for kw in call.keywords)
            for call, _owner, _cls in mod.nodes[ast.Call]
            if isinstance(call, ast.Call)):
        yield from _scan_scope(mod.tree.body)


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


def _float_eq_time(nodes: Iterable[ast.AST]) -> Iterator[Finding]:
    for node in nodes:
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


def _mutable_defaults(nodes: Iterable[ast.AST]) -> Iterator[Finding]:
    for node in nodes:
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
def _timer_for_a_charge(nodes: Iterable[ast.AST]) -> Iterator[Finding]:
    for node in nodes:
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


#: passes over the nodes of some AST classes, in any order
_NODE_PASSES = (("RPC008", (ast.Compare,), _float_eq_time),
                ("RPC009", (*_Def, ast.Lambda), _mutable_defaults),
                ("RPC010", (ast.Yield,), _timer_for_a_charge))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _allowed(code: str, path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(("/" + entry in posix) if entry.endswith("/")
               else posix.endswith(entry)
               for entry in ALLOW_PATHS.get(code, ()))


def _module_findings(mod: Module, registered: Optional[Dict[str, int]],
                     ) -> Iterator[Coded]:
    yield from _check_callbacks(mod)
    yield from _check_funnels(mod)
    if registered is not None:
        yield from _check_emissions(mod, registered)
    for line, col, message in _iteration_order(mod):
        yield "RPC007", line, col, message
    for code, kinds, scan in _NODE_PASSES:
        nodes = [node for kind in kinds
                 for node, _owner, _cls in mod.nodes[kind]]
        for line, col, message in scan(nodes):
            yield code, line, col, message


def run_contracts(modules: Sequence[Module]) -> List[Violation]:
    """All contract passes, pragma suppression applied, in a
    deterministic order."""
    taxonomy: Optional[Module] = None
    registered: Optional[Dict[str, int]] = None
    if modules:
        package = modules[0].name.split(".")[0]
        for mod in modules:
            if mod.name == f"{package}.observability.taxonomy":
                taxonomy = mod
                registered = _registered_categories(mod)
    found: List[Violation] = []
    for mod in modules:
        findings = list(_module_findings(
            mod, registered if mod is not taxonomy else None))
        if mod is taxonomy and registered is not None:
            findings.extend(_check_dead_categories(modules, mod, registered))
        pragmas = parse_pragmas(mod.lines)
        for code, line, col, message in findings:
            if _allowed(code, mod.path) \
                    or suppressed_by_pragma(pragmas, line, code):
                continue
            snippet = mod.lines[line - 1].strip() \
                if 0 < line <= len(mod.lines) else ""
            found.append(Violation(path=mod.path, line=line, col=col,
                                   code=code, message=message,
                                   snippet=snippet))
    found.sort(key=lambda v: (normalize_path(v.path), v.line, v.code,
                              v.message))
    return found
