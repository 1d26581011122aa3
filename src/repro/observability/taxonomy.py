"""The trace-category taxonomy of the simulated stack.

Every ``sim.record`` call site uses a category named
``<layer>.<event>``; the prefix before the first dot identifies the
emitting layer.  This module is the single source of truth: tests
assert instrumented code emits only documented categories, and the
Perfetto exporter uses :data:`LAYERS` to lay out one track group per
layer.

See ``docs/OBSERVABILITY.md`` for the prose version with the metrics
glossary.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "CATEGORIES", "layer_of", "entity_of",
           "categories_of_layer"]

#: layer track order (bottom-up through the stack).  These five always
#: appear in a plain traced run.
LAYERS: Tuple[str, ...] = ("nic", "nmad", "strategy", "pioman", "mpich2")

#: collective-dispatch layer (only emits when a program runs collectives)
COLL_LAYERS: Tuple[str, ...] = ("coll",)

#: link layer: per-hop traversal of a routed fabric (only emits when a
#: :class:`~repro.hardware.netgraph.RoutedFabric` topology is in play)
LINK_LAYERS: Tuple[str, ...] = ("link",)

#: every documented layer, in track order (links sit below the NICs)
ALL_LAYERS: Tuple[str, ...] = LINK_LAYERS + LAYERS + COLL_LAYERS

#: category -> one-line description.  Common data keys: ``src``/``dst``
#: (ranks), ``tag``, ``seq``, ``size`` (payload bytes), ``rdv``
#: (rendezvous id), ``dur`` (simulated seconds of work charged at/after
#: the record), ``rail`` (NIC name).
CATEGORIES: Dict[str, str] = {
    # -- hardware (routed-fabric links) --------------------------------
    "link.xmit": "frame occupied one link of a routed fabric "
                 "(dur = serialization, queued = wait behind earlier "
                 "frames, depth = occupancy after entry, hop/hops = "
                 "position along the route; src/dst are node ids)",
    # -- hardware (NIC / fabric) ---------------------------------------
    "nic.tx": "frame injection posted on a NIC transmit engine "
              "(dur = injection time, queued = tx-engine backlog delay)",
    "nic.rx": "frame delivered into a NIC receive queue",
    # -- NewMadeleine core ---------------------------------------------
    "nmad.send_post": "nm_sr_isend submitted (proto = eager|rdv)",
    "nmad.recv_post": "nm_sr_irecv submitted",
    "nmad.eager_rx": "eager entry matched a posted receive "
                     "(dur = copy-out + upper completion)",
    "nmad.rts_rx": "rendezvous request-to-send matched a posted receive",
    "nmad.rdv_grant": "receive buffer registered and CTS queued "
                      "(dur = memory registration)",
    "nmad.cts_rx": "clear-to-send received by the sender "
                   "(dur = handshake + send-buffer registration)",
    "nmad.data_rx": "one rendezvous data chunk arrived "
                    "(remaining = bytes still in flight)",
    "nmad.rdv_complete": "last rendezvous chunk arrived; receive completes",
    "nmad.unexpected": "arrived message had no posted receive; queued "
                       "(depth = unexpected-queue depth after insert)",
    "nmad.unexpected_match": "posted receive consumed an unexpected message "
                             "(residency = time it sat in the queue)",
    "nmad.seq_check": "per-(source, tag) message-ordering check",
    "nmad.reg_cache": "IB pin-down registration-cache lookup "
                      "(hit, evicted = bytes unpinned, pinned = bytes "
                      "resident after)",
    # -- strategy (optimization window) --------------------------------
    "strategy.push": "send item queued in the optimization window "
                     "(pending = window depth after push)",
    "strategy.pw_built": "packet wrapper built and posted on a rail "
                         "(entries = aggregation factor, msgs = entry keys)",
    "strategy.split": "large rendezvous payload striped across rails "
                      "(shares = [(rail, bytes), ...])",
    # -- PIOMan --------------------------------------------------------
    "pioman.poll": "worker woke to drain ltasks (mode = idle_core|wait_core)",
    "pioman.ltask": "one background ltask dispatched",
    "pioman.ltask.begin": "PIOMan worker began one ltask "
                          "(dispatch + protocol work under the node lock)",
    "pioman.ltask.end": "that ltask's protocol work finished "
                        "(dur = span seconds)",
    "pioman.sem_wait": "application thread blocked on a semaphore, "
                       "releasing its core",
    "pioman.sem_wake": "semaphore wait satisfied (waited = blocked time)",
    "pioman.engine.poll": "an alternative progress engine polled its "
                          "ltask queues (engine = manual_poll|"
                          "dedicated_thread, pending)",
    "pioman.engine.ltask": "one ltask dispatched by a progress engine "
                           "(engine = kind, dur = dispatch cost)",
    "pioman.engine.steal": "dedicated progress thread stole work from "
                           "another rank's queue (victim = rank)",
    # -- MPICH2 (CH3 / Nemesis) ----------------------------------------
    "mpich2.op.begin": "a blocking MPI API operation entered on a rank "
                       "(op = send|recv|wait|sendrecv)",
    "mpich2.op.end": "the blocking MPI API operation returned "
                     "(dur = rank-local seconds inside the call)",
    "mpich2.send": "MPID_Send entered (path = shm|direct|netmod)",
    "mpich2.recv_post": "MPID_Recv posted (src may be 'ANY')",
    "mpich2.cell_copy": "payload copied into/out of a Nemesis queue cell "
                        "(dir = in|out)",
    "mpich2.netmod_handoff": "CH3 packet crossed the network-module "
                             "interface (dir = tx|rx, kind = eager|rts|cts)",
    "mpich2.netmod_poll": "net_module_poll invoked for an arrived frame",
    "mpich2.anysource_scan": "ANY_SOURCE request-list probe of NewMadeleine "
                             "(hit = a matching message was buffered)",
    "mpich2.shm_send": "message copied into the shared-memory queue cells",
    "mpich2.shm_recv": "message copied out of the shared-memory queue cells",
    # -- collective dispatch (repro.coll selector) ---------------------
    "coll.begin": "a dispatched collective entered on one rank "
                  "(coll = collective, algo = selected algorithm, p, size)",
    "coll.end": "the dispatched collective returned on that rank "
                "(dur = rank-local seconds inside the algorithm)",
}


def layer_of(category: str) -> str:
    """The emitting layer of a category (its prefix before the dot)."""
    return category.split(".", 1)[0]


#: categories whose record's local entity is named by this data key
#: (fallback: first of ``rank``/``dst``/``src`` present); sender-side
#: records name the destination rank in ``dst`` but *happen* on ``src``
_LOCAL_KEY: Dict[str, str] = {
    "nmad.send_post": "src",
    "nmad.cts_rx": "src",
    "mpich2.send": "src",
    "mpich2.shm_send": "src",
}


def entity_of(category: str, data: Dict[str, object]) -> str:
    """The emitting entity of one record, as a stable display label.

    Node-scoped layers (``nic``, ``pioman``, ``strategy``) yield
    ``node<N>`` (plus the rail for per-rail records); everything else
    yields ``rank<R>`` from the first rank-naming data key.  This is
    the track label of the Perfetto export and the per-entity grouping
    key of the span profiler — one definition so the two line up.
    """
    layer = layer_of(category)
    if layer == "link":
        # link records name the physical link itself, not a rank: their
        # src/dst keys are *node* ids and must not hit the rank fallback
        return f"{data.get('rail', '?')} {data.get('link', '?')}"
    if layer in ("nic", "pioman", "strategy"):
        node = data.get("node", "?")
        rail = data.get("rail")
        return f"node{node} {rail}" if rail else f"node{node}"
    key: Optional[str] = _LOCAL_KEY.get(category)
    if key is None:
        for k in ("rank", "dst", "src"):
            if k in data:
                key = k
                break
    return f"rank{data.get(key, '?')}" if key else "events"


def categories_of_layer(layer: str) -> Tuple[str, ...]:
    """All documented categories a layer emits."""
    return tuple(c for c in CATEGORIES if layer_of(c) == layer)
