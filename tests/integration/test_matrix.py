"""Cross-feature matrix: one realistic mini-application on every stack.

The program mixes everything a real MPI code uses — point-to-point with
mixed sizes, nonblocking requests, ANY_SOURCE, collectives, compute
phases — and must produce identical *values* on every preset of
:data:`repro.config.STACKS` (timing differs; semantics must not).  The
presets span the three progress engines and the registration cache.
"""

import pytest

from repro import config
from repro.mpi import ANY_SOURCE
from repro.runtime import run_mpi


def mini_app(comm):
    """A ring + master/worker + collective workout; returns checkables."""
    p, r = comm.size, comm.rank
    out = {}

    # 1. ring shift with mixed sizes (eager and rendezvous)
    for size in (64, 256 << 10):
        msg = yield from comm.sendrecv((r + 1) % p, (r - 1) % p,
                                       tag=("ring", size), size=size,
                                       data=r)
        out[f"ring{size}"] = msg.data
    yield from comm.compute(5e-6)

    # 2. master/worker with ANY_SOURCE on rank 0
    if r == 0:
        sources = []
        for _ in range(p - 1):
            msg = yield from comm.recv(src=ANY_SOURCE, tag="work")
            sources.append(msg.source)
        out["sources"] = sorted(sources)
    else:
        yield from comm.compute(r * 3e-6)
        yield from comm.send(0, tag="work", size=512, data=r)

    # 3. collectives
    out["sum"] = yield from comm.allreduce(8, value=r + 1)
    gathered = yield from comm.gather(64, value=r * r, root=0)
    if r == 0:
        out["squares"] = gathered
    out["bcast"] = yield from comm.bcast(1024, data=("hello", p) if r == 0
                                         else None, root=0)
    yield from comm.barrier()
    return out


@pytest.mark.parametrize("preset", sorted(config.STACKS))
def test_mini_app_on_every_stack(preset):
    p = 4
    r = run_mpi(mini_app, p, config.stack(preset),
                cluster=config.ClusterSpec(
                    n_nodes=2, rails=config.xeon_pair().rails),
                ranks_per_node=2)
    for rank in range(p):
        out = r.result(rank)
        assert out["ring64"] == (rank - 1) % p
        assert out[f"ring{256 << 10}"] == (rank - 1) % p
        assert out["sum"] == p * (p + 1) // 2
        assert out["bcast"] == ("hello", p)
    assert r.result(0)["sources"] == [1, 2, 3]
    assert r.result(0)["squares"] == [0, 1, 4, 9]


@pytest.mark.parametrize("preset", [
    "mpich2_nmad", "mvapich2",
    # the PIOMan stack under each progress engine
    "mpich2_nmad_pioman", "mpich2_nmad_manual_poll", "mpich2_nmad_dedicated",
])
def test_mini_app_single_node(preset):
    """All ranks on one node: everything goes through shared memory."""
    p = 4
    r = run_mpi(mini_app, p, config.stack(preset),
                cluster=config.ClusterSpec(n_nodes=1), ranks_per_node=p)
    assert r.result(0)["sum"] == 10


def test_timing_sane_across_stacks():
    """Every stack finishes; pioman/netmod cost more than direct."""
    times = {}
    for preset in ("mpich2_nmad", "mpich2_nmad_netmod"):
        r = run_mpi(mini_app, 4, config.stack(preset),
                    cluster=config.ClusterSpec(
                        n_nodes=4, rails=config.xeon_pair().rails))
        times[preset] = r.elapsed
    assert times["mpich2_nmad_netmod"] > times["mpich2_nmad"]
