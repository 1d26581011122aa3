#!/usr/bin/env python3
"""Inspect what actually crosses the stack: traces, metrics, Perfetto.

Runs the same 8 MiB transfer under three configurations and shows, for
each one, the full observability pipeline (``docs/OBSERVABILITY.md``):

* which trace categories each layer emitted (the taxonomy view),
* the per-message critical-path latency breakdown,
* the headline metrics (frames and bytes per rail, NIC busy fraction,
  polls/msg),

and writes one Perfetto JSON per configuration — load them at
https://ui.perfetto.dev to see every layer as its own track group.

Run:  python examples/trace_wire_traffic.py
"""

from collections import defaultdict

from repro import config
from repro.observability import (attach_metrics, format_breakdown, layer_of,
                                 message_lives, write_perfetto)
from repro.runtime import run_mpi
from repro.simulator import Trace

SIZE = 8 << 20


def transfer(comm):
    if comm.rank == 0:
        yield from comm.send(1, tag=0, size=SIZE)
        yield from comm.send(1, tag=1, size=512)   # a trailing small message
    else:
        yield from comm.recv(src=0, tag=0)
        yield from comm.recv(src=0, tag=1)


def show(title, spec, out):
    trace = Trace()
    metrics = attach_metrics(trace)
    result = run_mpi(transfer, 2, spec, cluster=config.xeon_pair(),
                     trace=trace)
    print(f"\n### {title}  (done at {result.elapsed * 1e6:.0f} us)")

    by_layer = defaultdict(list)
    for cat in sorted(trace.categories_seen()):
        by_layer[layer_of(cat)].append(cat)
    print(f"{len(trace)} records from {len(by_layer)} layers:")
    for layer in sorted(by_layer):
        print(f"  {layer:<9} {', '.join(by_layer[layer])}")

    print()
    print(format_breakdown(message_lives(trace)))

    derived = metrics.derived()
    print()
    for rail, nbytes in sorted(derived["bytes_per_rail"].items()):
        frames = metrics.registry.counter("nic.tx_frames", rail).value
        busy = derived["nic_busy_fraction"].get(rail, 0.0)
        print(f"rail {rail}: {int(frames)} frames, {int(nbytes)} bytes on "
              f"the wire, NIC busy {busy * 100:.1f}%")
    if derived["polls_per_message"]:
        print(f"pioman polls per received message: "
              f"{derived['polls_per_message']:.2f}")

    write_perfetto(trace, out)
    print(f"Perfetto trace -> {out}")


def main():
    print(f"one {SIZE >> 20} MiB message + one 512 B message, rank0 -> rank1")
    show("CH3-direct (single IB rail)", config.mpich2_nmad(),
         "trace_direct.json")
    show("CH3-direct, multirail IB+MX", config.mpich2_nmad(rails=("ib", "mx")),
         "trace_multirail.json")
    show("netmod path (nested handshakes)", config.mpich2_nmad_netmod(),
         "trace_netmod.json")


if __name__ == "__main__":
    main()
