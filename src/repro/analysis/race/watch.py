"""Record accesses to a built runtime's shared containers.

The protocol layers carry no race hooks.  After
:meth:`RaceDetector.install`, :func:`watch_runtime` swaps each shared
container of an :class:`~repro.runtime.builder.MPIRuntime` for a
subclass of its own type whose reads (iteration, ``len``, ``in``,
lookups) and writes (anything that can change it) report to the
monitor under the names of :data:`WATCHED`.  Values stored inside a
watched container are not watched: wrapping copies them, and the
protocol keeps aliases to some.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Any, Callable, Dict, Tuple

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


def watch_runtime(monitor: Any, runtime: Any) -> None:
    """Swap every container of :data:`WATCHED` in ``runtime``, and each
    nmad driver's ``inflight`` window count, for a recording one."""
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
