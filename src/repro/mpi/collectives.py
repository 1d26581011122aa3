"""Collective algorithms over point-to-point primitives.

Classic MPICH-style small-message algorithms live here:

* barrier — dissemination (ceil(log2 p) rounds, any p);
* bcast / reduce — binomial tree;
* allreduce — recursive doubling (power-of-two), reduce+bcast otherwise;
* gather / scatter — linear to/from root (sufficient at skeleton scale);
* allgather — ring;
* alltoall — pairwise exchange;
* scan — linear chain (inclusive prefix).

The large-message counterparts (ring/Rabenseifner allreduce,
scatter-allgather bcast, Bruck allgather/alltoall, tree barrier) live
in :mod:`repro.coll.algorithms`.  Both sets register with
:mod:`repro.coll.registry`, and the public entry points below for
barrier/bcast/reduce/allreduce/allgather/alltoall are *dispatchers*:
they pick the algorithm through :mod:`repro.coll.selector` (size/p
cutoff table, overridable by ``selector.forced``) and emit
``coll.begin``/``coll.end`` trace records around the run.

Every collective draws a fresh tag from the communicator's collective
sequence, so overlapping collectives in one program cannot cross-match
(MPI programs call collectives in the same order on every rank).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.coll import registry as _registry
from repro.coll import selector as _selector


def _default_op(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return a if b is None else b
    return a + b


# ----------------------------------------------------------------------
# selector dispatch
# ----------------------------------------------------------------------

def _dispatch(comm, collective: str, size: int, payload: Any, args: tuple):
    """Resolve the algorithm for this call and run it, traced.

    ``payload`` is only consulted for segmented algorithms (must be
    None or a list there); selection itself depends on (p, size) alone,
    so it is identical on every rank.
    """
    algo = _selector.resolve(collective, comm.size, size, payload)
    sim = comm.sim
    if not sim.tracing:
        result = yield from algo.fn(comm, *args)
        return result
    sim.record("coll.begin", coll=collective, algo=algo.name,
               rank=comm.rank, p=comm.size, size=size)
    t0 = sim.now
    result = yield from algo.fn(comm, *args)
    sim.record("coll.end", coll=collective, algo=algo.name,
               rank=comm.rank, p=comm.size, size=size, dur=sim.now - t0)
    return result


def barrier(comm):
    """Barrier, dispatched (dissemination or tree)."""
    yield from _dispatch(comm, "barrier", 0, None, ())


def bcast(comm, size: int, data: Any = None, root: int = 0):
    """Broadcast, dispatched (binomial or scatter-allgather).

    Selection ignores the payload (it differs between root and
    non-roots); every registered bcast algorithm accepts any payload.
    """
    result = yield from _dispatch(comm, "bcast", size, None,
                                  (size, data, root))
    return result


def reduce(comm, size: int, value: Any = None, root: int = 0, op=None):
    """Reduction to root, dispatched (binomial)."""
    result = yield from _dispatch(comm, "reduce", size, None,
                                  (size, value, root, op))
    return result


def allreduce(comm, size: int, value: Any = None, op=None):
    """Allreduce, dispatched (recursive doubling, ring, Rabenseifner)."""
    result = yield from _dispatch(comm, "allreduce", size, value,
                                  (size, value, op))
    return result


def allgather(comm, size: int, value: Any = None):
    """Allgather, dispatched (ring or Bruck)."""
    result = yield from _dispatch(comm, "allgather", size, None,
                                  (size, value))
    return result


def alltoall(comm, size: int, values: Optional[list] = None):
    """All-to-all, dispatched (pairwise or Bruck).

    ``size`` is the per-pair message size (each rank sends ``size``
    bytes to every other rank).
    """
    result = yield from _dispatch(comm, "alltoall", size, None,
                                  (size, values))
    return result


# ----------------------------------------------------------------------
# classic algorithm implementations
# ----------------------------------------------------------------------

def barrier_dissemination(comm):
    """Dissemination barrier: ``ceil(log2 p)`` rounds of ``p``
    simultaneous pairwise signals."""
    tag = comm._next_coll_tag("barrier")
    p, r = comm.size, comm.rank
    if p == 1:
        return
    k = 1
    while k < p:
        dst = (r + k) % p
        src = (r - k) % p
        yield from comm.sendrecv(dst, src, tag=(tag, k), size=1)
        k *= 2


def bcast_binomial(comm, size: int, data: Any = None, root: int = 0):
    """Binomial-tree broadcast (``log2 p`` tree hops of the full
    payload); returns the broadcast data."""
    tag = comm._next_coll_tag("bcast")
    p = comm.size
    if p == 1:
        return data
    vr = (comm.rank - root) % p  # virtual rank with root at 0
    mask = 1
    while mask < p:
        if vr & mask:
            src = (vr - mask + root) % p
            msg = yield from comm.recv(src=src, tag=tag)
            data = msg.data
            break
        mask *= 2
    mask //= 2
    while mask > 0:
        if vr + mask < p:
            dst = (vr + mask + root) % p
            yield from comm.send(dst, tag=tag, size=size, data=data)
        mask //= 2
    return data


def reduce_binomial(comm, size: int, value: Any = None, root: int = 0,
                    op=None):
    """Binomial-tree reduction (``log2 p`` tree hops of the full
    payload); the root returns the combined value."""
    tag = comm._next_coll_tag("reduce")
    op = op or _default_op
    p = comm.size
    if p == 1:
        return value
    vr = (comm.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vr & mask:
            dst = (vr - mask + root) % p
            yield from comm.send(dst, tag=(tag, mask), size=size, data=acc)
            return None
        partner = vr + mask
        if partner < p:
            src = (partner + root) % p
            msg = yield from comm.recv(src=src, tag=(tag, mask))
            acc = op(acc, msg.data)
        mask *= 2
    return acc


def allreduce_recursive_doubling(comm, size: int, value: Any = None, op=None):
    """Recursive doubling when p is a power of two, else reduce+bcast:
    ``log2 p`` exchanges of the full payload."""
    tag = comm._next_coll_tag("allreduce")
    op = op or _default_op
    p, r = comm.size, comm.rank
    if p == 1:
        return value
    if p & (p - 1) == 0:
        acc = value
        mask = 1
        while mask < p:
            partner = r ^ mask
            msg = yield from comm.sendrecv(partner, partner, tag=(tag, mask),
                                           size=size, data=acc)
            acc = op(acc, msg.data)
            mask *= 2
        return acc
    # non-power-of-two: binomial reduce + binomial bcast (direct calls —
    # the composition is part of this algorithm, not a re-dispatch)
    acc = yield from reduce_binomial(comm, size, value, root=0, op=op)
    acc = yield from bcast_binomial(comm, size, acc, root=0)
    return acc


def gather(comm, size: int, value: Any = None, root: int = 0):
    """Linear gather; the root returns the list indexed by rank."""
    tag = comm._next_coll_tag("gather")
    if comm.size == 1:
        return [value]
    if comm.rank == root:
        out: list = [None] * comm.size
        out[root] = value
        reqs = []
        for src in range(comm.size):
            if src == root:
                continue
            req = yield from comm.irecv(src=src, tag=(tag, src))
            reqs.append((src, req))
        for src, req in reqs:
            msg = yield from comm.wait(req)
            out[src] = msg.data
        return out
    yield from comm.send(root, tag=(tag, comm.rank), size=size, data=value)
    return None


def scatter(comm, size: int, values: Optional[list] = None, root: int = 0):
    """Linear scatter; every rank returns its element."""
    tag = comm._next_coll_tag("scatter")
    if comm.size == 1:
        return values[0] if values else None
    if comm.rank == root:
        reqs = []
        for dst in range(comm.size):
            if dst == root:
                continue
            data = values[dst] if values else None
            req = yield from comm.isend(dst, tag=(tag, dst), size=size, data=data)
            reqs.append(req)
        for req in reqs:
            yield from comm.wait(req)
        return values[root] if values else None
    msg = yield from comm.recv(src=root, tag=(tag, comm.rank))
    return msg.data


def allgather_ring(comm, size: int, value: Any = None):
    """Ring allgather (``p-1`` neighbour steps of one contribution
    each); returns the list indexed by rank."""
    tag = comm._next_coll_tag("allgather")
    p, r = comm.size, comm.rank
    out: list = [None] * p
    out[r] = value
    if p == 1:
        return out
    right, left = (r + 1) % p, (r - 1) % p
    block = r
    for step in range(p - 1):
        msg = yield from comm.sendrecv(right, left, tag=(tag, step),
                                       size=size, data=(block, out[block]))
        block, data = msg.data
        out[block] = data
    return out


def alltoall_pairwise(comm, size: int, values: Optional[list] = None):
    """Pairwise-exchange all-to-all (``p-1`` exchanges of the full
    per-pair payload); returns the list indexed by source."""
    tag = comm._next_coll_tag("alltoall")
    p, r = comm.size, comm.rank
    out: list = [None] * p
    out[r] = values[r] if values else None
    for step in range(1, p):
        dst = (r + step) % p
        src = (r - step) % p
        data = values[dst] if values else None
        msg = yield from comm.sendrecv(dst, src, tag=(tag, step),
                                       size=size, data=data)
        out[src] = msg.data
    return out


def scan(comm, size: int, value: Any = None, op=None):
    """Inclusive prefix reduction: rank r returns op(v_0, ..., v_r)."""
    tag = comm._next_coll_tag("scan")
    op = op or _default_op
    acc = value
    if comm.rank > 0:
        msg = yield from comm.recv(src=comm.rank - 1, tag=tag)
        acc = op(msg.data, value)
    if comm.rank < comm.size - 1:
        yield from comm.send(comm.rank + 1, tag=tag, size=size, data=acc)
    return acc


# ----------------------------------------------------------------------
# registration (the classic algorithms are the payload-safe fallbacks)
# ----------------------------------------------------------------------

_registry.register("barrier", "dissemination", barrier_dissemination,
                   fallback=True)
_registry.register("bcast", "binomial", bcast_binomial, fallback=True)
_registry.register("reduce", "binomial", reduce_binomial, fallback=True)
_registry.register("allreduce", "recursive_doubling",
                   allreduce_recursive_doubling, fallback=True)
_registry.register("allgather", "ring", allgather_ring, fallback=True)
_registry.register("alltoall", "pairwise", alltoall_pairwise, fallback=True)
