"""Record accesses to a built runtime's shared containers, and install
the virtual locks that order them.

The protocol layers carry no race hooks and no lock regions.  After
:meth:`RaceDetector.install`, :func:`watch_runtime` swaps each shared
container of an :class:`~repro.runtime.builder.MPIRuntime` for a
subclass of its own type whose reads (iteration, ``len``, ``in``,
lookups) and writes (anything that can change it) report to the
monitor under the names of :data:`WATCHED`.  Values stored inside a
watched container are not watched: wrapping copies them, and the
protocol keeps aliases to some.  It then wraps each method of
:data:`REGIONS` in the monitor's region for that method's lock, so an
unwatched run pays nothing for them.
"""

from __future__ import annotations

import inspect
from collections import deque
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterator, NamedTuple, Tuple

from repro.hardware.netgraph import RoutedFabric
from repro.mpich2.ch3 import CH3Stack
from repro.mpich2.stackbase import BaseStack
from repro.nmad.drivers.base import NmadDriver
from repro.pioman.engines import ManualPollEngine, ProgressEngine
from repro.pioman.manager import PIOMan
from repro.runtime.builder import MPIRuntime

_READS = ("__iter__", "__len__", "__contains__", "__getitem__", "get",
          "keys", "values", "items")
_WRITES = ("append", "appendleft", "extend", "extendleft", "insert",
           "pop", "popleft", "popitem", "remove", "clear", "rotate",
           "__setitem__", "__delitem__", "__iadd__", "setdefault", "update",
           "sort", "reverse")

#: variable -> the containers it names, as attribute paths from a
#: rank's stack (``@r<rank>``) or a node's progress engine
#: (``@n<node>``); a path the object lacks is skipped
WATCHED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("mpich2.inbox@r", ("inbox",)),
    ("mpich2.posted@r", ("posted._reqs",)),
    ("mpich2.unexpected@r", ("unexpected._envs",)),
    ("mpich2.ch3rdv@r", ("_ch3_rdv_send",)),
    ("mpich2.anysource@r", ("book._lists",)),
    ("nmad.posted@r", ("core.posted",)),
    ("nmad.unexpected@r", ("core.unexpected",)),
    ("nmad.rdv@r", ("core._rdv_send", "core._rdv_recv")),
    ("nmad.seq@r", ("core._send_seq", "core._recv_seq")),
    ("nmad.strategy@r", ("core.strategy.queue",)),
    ("pioman.queue@n", ("_queue", "_queues")),
)


def _stack_node(stack: Any, *_: Any) -> Tuple[str, int]:
    return ("node", stack.node.node_id)


def _engine_node(engine: Any, *_: Any) -> Tuple[str, int]:
    return ("node", engine.scheduler.node_id)


class Region(NamedTuple):
    """One virtual lock region: calls of ``owner.<method>`` run in it."""

    owner: type
    method: str
    #: ``key(owner, *args)`` -> the lock; one key is one lock
    key: Callable[..., Any]
    #: a label ending in ``@r`` gets the owning stack's rank
    label: str
    #: the method takes a generator factory (``submit``): the region
    #: wraps each generator the factory makes, not the call itself
    factory: bool = False


#: every virtual lock the real stack takes.  All of a node's regions
#: share its progress lock ``("node", node_id)`` (PIOMan's ``piom_lock``,
#: paper Section 3.3), so the detector serializes them.
REGIONS: Tuple[Region, ...] = (
    Region(CH3Stack, "isend", _stack_node, "mpich2.isend@r"),
    Region(CH3Stack, "_post_any_source", _stack_node, "mpich2.irecv@r"),
    Region(CH3Stack, "_post_recv", _stack_node, "mpich2.irecv@r"),
    Region(BaseStack, "_drain", _stack_node, "mpich2.progress@r"),
    Region(BaseStack, "_progress_item", _stack_node, "mpich2.progress@r"),
    # frame deliveries touch stack inboxes on the destination node
    Region(MPIRuntime, "_route_frame",
           lambda _runtime, frame: ("node", frame.dst), "net.route"),
    # injection completions touch the driver window
    Region(NmadDriver, "_injected",
           lambda driver, _pw: ("node", driver.nic.node_id), "nmad.injected"),
    Region(RoutedFabric, "_observe",
           lambda _fabric, node_id, _queued: ("node", node_id),
           "link.observe"),
    # every ltask runs under the node lock, whichever engine runs it
    Region(PIOMan, "submit", _engine_node, "pioman.ltask", factory=True),
    Region(ProgressEngine, "submit", _engine_node, "pioman.ltask",
           factory=True),
    # manual_poll's application threads test and pop under it too
    Region(ManualPollEngine, "_take", _engine_node, "pioman.ltask"),
)


def _recorder(base: type, op: str, write: bool) -> Callable[..., Any]:
    method = getattr(base, op)

    def recorded(self: Any, *args: Any, **kwargs: Any) -> Any:
        self._monitor.on_access(self._var, write, op)
        return method(self, *args, **kwargs)

    return recorded


@lru_cache(maxsize=None)
def _recording(base: type) -> type:
    """The one recording subclass of ``base``."""
    ns: Dict[str, Any] = {"__slots__": ("_monitor", "_var")}
    for ops, write in ((_READS, False), (_WRITES, True)):
        ns.update((op, _recorder(base, op, write))
                  for op in ops if hasattr(base, op))
    return type(f"Watched{base.__name__}", (base,), ns)


def _watched(monitor: Any, container: Any, var: str) -> Any:
    """A recording copy of ``container`` reporting to ``monitor``."""
    cls = _recording(type(container))
    copy = (cls(container, container.maxlen) if isinstance(container, deque)
            else cls(container))
    copy._monitor = monitor
    copy._var = var
    return copy


def watch_scalar(monitor: Any, obj: Any, attr: str, var: str) -> None:
    """Record every read and write of ``obj.<attr>`` as ``var``."""

    def get(self: Any) -> Any:
        monitor.on_access(var, False, attr)
        return self.__dict__[attr]

    def put(self: Any, value: Any) -> None:
        monitor.on_access(var, True, attr)
        self.__dict__[attr] = value

    base = type(obj)
    obj.__class__ = type(base.__name__, (base,), {attr: property(get, put)})


def _swap(monitor: Any, owner: Any, path: str, var: str) -> None:
    *hops, attr = path.split(".")
    for hop in hops:
        owner = getattr(owner, hop, None)
    if owner is not None and hasattr(owner, attr):
        setattr(owner, attr, _watched(monitor, getattr(owner, attr), var))


def _in_region(monitor: Any, key: Any, label: str,
               work: Callable[[], Any]) -> Any:
    with monitor.region(key, label):
        return (yield from work())


def _wrapped(monitor: Any, region: Region, owner: Any) -> Callable[..., Any]:
    """``owner.<region.method>``, run in ``region``."""
    method = getattr(owner, region.method, None)
    if not callable(method):
        raise ValueError(f"REGIONS entry {region.owner.__name__}."
                         f"{region.method}: {type(owner).__name__} has no "
                         f"method {region.method!r}")
    key = partial(region.key, owner)
    label = region.label
    if label.endswith("@r"):
        label += str(owner.rank)
    if region.factory:
        def submit(work: Callable[[], Any], *args: Any, **kwargs: Any) -> Any:
            return method(partial(_in_region, monitor, key(), label, work),
                          *args, **kwargs)
        return submit
    if inspect.isgeneratorfunction(method):
        def generator(*args: Any, **kwargs: Any) -> Any:
            with monitor.region(key(*args), label):
                return (yield from method(*args, **kwargs))
        return generator

    def callback(*args: Any, **kwargs: Any) -> Any:
        with monitor.region(key(*args), label):
            return method(*args, **kwargs)
    return callback


def _owners(runtime: Any) -> Iterator[Any]:
    """Every object of ``runtime`` a :data:`REGIONS` entry may own."""
    yield runtime
    yield from runtime.stacks
    for stack in runtime.stacks:
        yield from getattr(getattr(stack, "core", None), "drivers", ())
    yield from runtime.cluster.fabrics.values()
    yield from (engine for _node, engine in sorted(runtime.piomans.items())
                if engine is not None)


def watch_runtime(monitor: Any, runtime: Any) -> None:
    """Swap every container of :data:`WATCHED` in ``runtime``, and each
    nmad driver's ``inflight`` window count, for a recording one; then
    run each method of :data:`REGIONS` in its region.

    Raises :class:`ValueError` naming the entry when an owner lacks a
    method the table declares.
    """
    owners = [("@r", rank, stack) for rank, stack in enumerate(runtime.stacks)]
    owners += [("@n", node, engine)
               for node, engine in sorted(runtime.piomans.items())]
    for tag, index, owner in owners:
        for var, paths in WATCHED:
            if var.endswith(tag):
                for path in paths:
                    _swap(monitor, owner, path, f"{var}{index}")
        for driver in getattr(getattr(owner, "core", None), "drivers", ()):
            watch_scalar(monitor, driver, "inflight",
                         f"nmad.pending@r{index}:{driver.name}")
    for owner in _owners(runtime):
        for region in REGIONS:
            if isinstance(owner, region.owner):
                setattr(owner, region.method,
                        _wrapped(monitor, region, owner))
    # the NICs hold the router bound at build time
    for node in runtime.cluster.nodes:
        for nic in node.nics.values():
            nic.rx_notify = runtime._route_frame
