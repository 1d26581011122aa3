"""Large-message collective algorithms.

The classic MPICH-style *small-message* algorithms live in
:mod:`repro.mpi.collectives` (binomial bcast/reduce, recursive-doubling
allreduce, dissemination barrier, ring allgather, pairwise alltoall).
This module adds the *large-message* and *latency-optimized*
counterparts whose winning regions flip with message size and process
count — the crossover behaviour the selection table and the
``repro coll-tune`` autotuner pin down:

* ``allreduce/ring`` — ring reduce-scatter + ring allgather,
  ``2(p-1)`` steps of ``size/p`` bytes (bandwidth-optimal, any p);
* ``allreduce/rabenseifner`` — recursive-halving reduce-scatter +
  recursive-doubling allgather, ``2 log2 p`` steps moving ``2·size``
  bytes total, with the non-power-of-two pre-fold of Rabenseifner's
  original formulation;
* ``bcast/scatter_allgather`` — binomial scatter of ``size/p`` blocks
  followed by a ring allgather (van de Geijn), ``~2·size`` bytes moved
  instead of ``log2 p · size``;
* ``allgather/bruck`` — ``ceil(log2 p)`` rounds of doubling item sets
  (latency-optimal; pays pack/rotate memory copies);
* ``alltoall/bruck`` — ``ceil(log2 p)`` rounds, each item forwarded
  once per set bit of its rank distance (``log2 p / 2`` extra wire
  traffic — the classic small-message/large-message tradeoff);
* ``barrier/tree`` — binomial gather + binomial release (2 log2 p
  sequential hops vs dissemination's log2 p rounds of p messages).

Segmented algorithms (the first three) partition the payload into
MPI-style contiguous blocks.  They accept ``data=None`` (timing-only —
block payloads are ``None`` and the reduction op is skipped) or a
``list`` treated as an element vector; the reduction op is then applied
*blockwise* (to sublists), so it must be elementwise-compatible and
commutative — exactly the contract MPI imposes on built-in ops.  The
dispatcher in :mod:`repro.mpi.collectives` falls back to the classic
algorithm for any other payload kind.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.coll import registry


def _default_op(a: Any, b: Any) -> Any:
    if a is None or b is None:
        return a if b is None else b
    return a + b


def _combine(op, a: Any, b: Any) -> Any:
    """Apply ``op`` treating None as the identity (timing-only runs)."""
    if a is None or b is None:
        return a if b is None else b
    return op(a, b)


def _bounds(n: int, p: int) -> List[Tuple[int, int]]:
    """MPI-style contiguous partition of ``n`` elements into ``p`` blocks.

    The first ``n % p`` blocks get one extra element; blocks may be
    empty when ``n < p``.
    """
    base, extra = divmod(max(n, 0), p)
    out = []
    lo = 0
    for i in range(p):
        hi = lo + base + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _check_vector(value: Any, what: str) -> bool:
    """True when ``value`` is a vector payload; raises on other kinds."""
    if value is None:
        return False
    if isinstance(value, list):
        return True
    raise TypeError(
        f"{what} is a segmented algorithm: the payload must be None "
        f"(timing-only) or a list (element vector), got "
        f"{type(value).__name__} — the dispatcher normally falls back "
        "to the classic algorithm for such payloads")


class _Opaque:
    """Marker wrapping a non-splittable bcast payload into block 0."""

    __slots__ = ("data",)

    def __init__(self, data: Any) -> None:
        self.data = data


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------

def allreduce_ring(comm, size: int, value: Any = None, op=None):
    """Ring reduce-scatter + ring allgather (bandwidth-optimal, any p)."""
    tag = comm._next_coll_tag("allreduce")
    op = op or _default_op
    p, r = comm.size, comm.rank
    if p == 1:
        return value
    vec = _check_vector(value, "allreduce/ring")
    bbytes = [hi - lo for lo, hi in _bounds(size, p)]
    if vec:
        blocks: List[Any] = [value[lo:hi] for lo, hi in _bounds(len(value), p)]
    else:
        blocks = [None] * p
    right, left = (r + 1) % p, (r - 1) % p
    # reduce-scatter: after p-1 steps rank r holds final block (r+1) % p
    for s in range(p - 1):
        sidx = (r - s) % p
        ridx = (r - s - 1) % p
        msg = yield from comm.sendrecv(right, left, tag=(tag, "rs", s),
                                       size=bbytes[sidx], data=blocks[sidx])
        blocks[ridx] = _combine(op, msg.data, blocks[ridx])
    # ring allgather of the reduced blocks
    for s in range(p - 1):
        sidx = (r + 1 - s) % p
        ridx = (r - s) % p
        msg = yield from comm.sendrecv(right, left, tag=(tag, "ag", s),
                                       size=bbytes[sidx], data=blocks[sidx])
        blocks[ridx] = msg.data
    if not vec:
        return None
    out: List[Any] = []
    for block in blocks:
        out.extend(block)
    return out


def allreduce_rabenseifner(comm, size: int, value: Any = None, op=None):
    """Recursive-halving reduce-scatter + recursive-doubling allgather.

    Non-power-of-two process counts use Rabenseifner's pre-fold: the
    first ``2·rem`` ranks pair up (even ranks fold their contribution
    into the odd neighbour and sit out the core), the power-of-two core
    runs, and folded ranks receive the result back at the end.
    """
    tag = comm._next_coll_tag("allreduce")
    op = op or _default_op
    p, r = comm.size, comm.rank
    if p == 1:
        return value
    vec = _check_vector(value, "allreduce/rabenseifner")
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2

    acc = value
    if r < 2 * rem:
        if r % 2 == 0:
            yield from comm.send(r + 1, tag=(tag, "fold"), size=size,
                                 data=acc)
            newrank = -1
        else:
            msg = yield from comm.recv(src=r - 1, tag=(tag, "fold"))
            acc = _combine(op, msg.data, acc)
            newrank = r // 2
    else:
        newrank = r - rem

    def real(nr: int) -> int:
        return nr * 2 + 1 if nr < rem else nr + rem

    result: Any = None
    if newrank >= 0:
        bbounds = _bounds(size, pof2)

        def range_bytes(blo: int, bhi: int) -> int:
            return bbounds[bhi - 1][1] - bbounds[blo][0] if bhi > blo else 0

        if vec:
            blocks: List[Any] = [acc[elo:ehi]
                                 for elo, ehi in _bounds(len(acc), pof2)]
        else:
            blocks = [None] * pof2

        # recursive halving: interval [lo, hi) narrows to block `newrank`
        lo, hi = 0, pof2
        mask = pof2 // 2
        while mask >= 1:
            partner = real(newrank ^ mask)
            mid = (lo + hi) // 2
            if newrank & mask == 0:
                keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
            else:
                keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
            msg = yield from comm.sendrecv(
                partner, partner, tag=(tag, "rs", mask),
                size=range_bytes(send_lo, send_hi),
                data=blocks[send_lo:send_hi])
            for i, incoming in zip(range(keep_lo, keep_hi), msg.data):
                blocks[i] = _combine(op, incoming, blocks[i])
            lo, hi = keep_lo, keep_hi
            mask //= 2

        # recursive doubling allgather: aligned intervals merge back
        mask = 1
        while mask < pof2:
            cnt = hi - lo
            if newrank & mask == 0:
                plo, phi = hi, hi + cnt
            else:
                plo, phi = lo - cnt, lo
            partner = real(newrank ^ mask)
            msg = yield from comm.sendrecv(
                partner, partner, tag=(tag, "ag", mask),
                size=range_bytes(lo, hi), data=blocks[lo:hi])
            blocks[plo:phi] = msg.data
            lo, hi = min(lo, plo), max(hi, phi)
            mask *= 2

        if vec:
            result = []
            for block in blocks:
                result.extend(block)

    # unfold: active odd ranks ship the full result back to their pair
    if r < 2 * rem:
        if r % 2 == 0:
            msg = yield from comm.recv(src=r + 1, tag=(tag, "unfold"))
            result = msg.data
        else:
            yield from comm.send(r - 1, tag=(tag, "unfold"), size=size,
                                 data=result)
    return result if vec else None


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------

def bcast_scatter_allgather(comm, size: int, data: Any = None, root: int = 0):
    """Binomial scatter of blocks + ring allgather (van de Geijn).

    A list payload is split into ``p`` element blocks; any other
    payload rides opaquely in block 0 (the wire sizes still follow the
    ``size`` partition, so timing is unchanged).
    """
    tag = comm._next_coll_tag("bcast")
    p = comm.size
    if p == 1:
        return data
    vr = (comm.rank - root) % p

    def real(v: int) -> int:
        return (v + root) % p

    bbounds = _bounds(size, p)

    def range_bytes(blo: int, bhi: int) -> int:
        return bbounds[bhi - 1][1] - bbounds[blo][0] if bhi > blo else 0

    blocks: List[Any] = [None] * p
    if comm.rank == root and data is not None:
        if isinstance(data, list):
            blocks = [data[elo:ehi]
                      for elo, ehi in _bounds(len(data), p)]
        else:
            blocks[0] = _Opaque(data)

    # binomial scatter over virtual ranks: parent sends each child the
    # block range its subtree covers
    mask = 1
    if vr == 0:
        while mask < p:
            mask *= 2
    else:
        while mask < p:
            if vr & mask:
                src = real(vr - mask)
                msg = yield from comm.recv(src=src, tag=(tag, "sc"))
                blocks[vr:min(vr + mask, p)] = msg.data
                break
            mask *= 2
    mask //= 2
    while mask:
        if vr + mask < p:
            dst = real(vr + mask)
            end = min(vr + 2 * mask, p)
            yield from comm.send(dst, tag=(tag, "sc"),
                                 size=range_bytes(vr + mask, end),
                                 data=blocks[vr + mask:end])
        mask //= 2

    # ring allgather of the scattered blocks (virtual-rank ring)
    right, left = real(vr + 1), real(vr - 1)
    for s in range(p - 1):
        sidx = (vr - s) % p
        ridx = (vr - s - 1) % p
        msg = yield from comm.sendrecv(right, left, tag=(tag, "ag", s),
                                       size=range_bytes(sidx, sidx + 1),
                                       data=blocks[sidx])
        blocks[ridx] = msg.data

    if comm.rank == root:
        return data
    for block in blocks:
        if isinstance(block, _Opaque):
            return block.data
    if all(block is None for block in blocks):
        return None
    out: List[Any] = []
    for block in blocks:
        out.extend(block)
    return out


# ---------------------------------------------------------------------------
# allgather / alltoall (Bruck)
# ---------------------------------------------------------------------------

def allgather_bruck(comm, size: int, value: Any = None):
    """Bruck allgather: ``ceil(log2 p)`` rounds of doubling item sets.

    Latency-optimal for small contributions; charges pack/rotate
    memory copies (the cost that hands large messages back to ring).
    """
    tag = comm._next_coll_tag("allgather")
    p, r = comm.size, comm.rank
    held: List[Any] = [value]
    if p == 1:
        return held
    mem = comm.stack.node.mem
    k, step = 1, 0
    while k < p:
        cnt = min(k, p - k)
        dst = (r - k) % p
        src = (r + k) % p
        pack = mem.copy_time(cnt * size)
        if pack:
            yield pack
        msg = yield from comm.sendrecv(dst, src, tag=(tag, step),
                                       size=cnt * size, data=held[:cnt])
        held.extend(msg.data)
        k *= 2
        step += 1
    # final inverse rotation: held[i] is the value of rank (r + i) % p
    rot = mem.copy_time(p * size)
    if rot:
        yield rot
    out: List[Any] = [None] * p
    for i in range(p):
        out[(r + i) % p] = held[i]
    return out


def alltoall_bruck(comm, size: int, values: Optional[list] = None):
    """Bruck alltoall: log rounds; each item forwarded once per set bit
    of its rank distance (≈ ``log2 p / 2`` extra wire traffic)."""
    tag = comm._next_coll_tag("alltoall")
    p, r = comm.size, comm.rank
    if p == 1:
        return [values[r] if values else None]
    mem = comm.stack.node.mem
    # phase 1 — rotate: tmp[i] holds my item destined to rank (r+i) % p
    tmp: List[Any] = [values[(r + i) % p] if values else None
                      for i in range(p)]
    rot = mem.copy_time(p * size)
    if rot:
        yield rot
    # phase 2 — for each bit, forward every item whose remaining
    # distance has that bit set
    k, step = 1, 0
    while k < p:
        idxs = [i for i in range(p) if i & k]
        dst = (r + k) % p
        src = (r - k) % p
        pack = mem.copy_time(len(idxs) * size)
        if pack:
            yield pack
        msg = yield from comm.sendrecv(dst, src, tag=(tag, step),
                                       size=len(idxs) * size,
                                       data=[tmp[i] for i in idxs])
        for i, item in zip(idxs, msg.data):
            tmp[i] = item
        k *= 2
        step += 1
    # phase 3 — inverse rotate: tmp[i] came from rank (r - i) % p
    rot = mem.copy_time(p * size)
    if rot:
        yield rot
    out: List[Any] = [None] * p
    for i in range(p):
        out[(r - i) % p] = tmp[i]
    return out


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def barrier_tree(comm):
    """Binomial gather-to-0 + binomial release (2 log2 p critical path)."""
    tag = comm._next_coll_tag("barrier")
    p, r = comm.size, comm.rank
    if p == 1:
        return
    mask = 1
    while mask < p:
        if r & mask:
            yield from comm.send(r - mask, tag=(tag, "up", mask), size=1)
            yield from comm.recv(src=r - mask, tag=(tag, "down"))
            break
        partner = r + mask
        if partner < p:
            yield from comm.recv(src=partner, tag=(tag, "up", mask))
        mask *= 2
    mask //= 2
    while mask:
        if r + mask < p:
            yield from comm.send(r + mask, tag=(tag, "down"), size=1)
        mask //= 2


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

registry.register(
    "allreduce", "ring", allreduce_ring, needs_vector=True,
    summary="2(p-1) steps of size/p bytes; bandwidth-optimal, any p")
registry.register(
    "allreduce", "rabenseifner", allreduce_rabenseifner, needs_vector=True,
    summary="2 log2 p halving/doubling steps, 2*size bytes total; "
            "non-pow2 via pre-fold")
registry.register(
    "bcast", "scatter_allgather", bcast_scatter_allgather,
    summary="binomial scatter + ring allgather (van de Geijn), "
            "~2*size bytes vs log2 p * size")
registry.register(
    "allgather", "bruck", allgather_bruck,
    summary="ceil(log2 p) doubling rounds; latency-optimal, "
            "pays pack/rotate copies")
registry.register(
    "alltoall", "bruck", alltoall_bruck,
    summary="ceil(log2 p) rounds; ~log2(p)/2 x extra wire bytes "
            "buys p -> log p messages")
registry.register(
    "barrier", "tree", barrier_tree,
    summary="binomial gather + release; p-1 messages total vs "
            "dissemination's p log2 p")
