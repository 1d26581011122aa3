"""Netpipe and overlap workload harnesses."""

import pytest

from repro import config
from repro.workloads.netpipe import run_netpipe
from repro.workloads.overlap import run_overlap


def test_netpipe_result_structure():
    res = run_netpipe(config.mpich2_nmad(), config.xeon_pair(),
                      sizes=[4, 64, 1024], reps=3)
    assert res.sizes == [4, 64, 1024]
    assert len(res.latencies) == 3
    assert res.latency_at(64) == res.latencies[1]
    assert res.bandwidth_at(1024) == res.bandwidths[2]


def test_netpipe_latency_monotone_in_size():
    res = run_netpipe(config.mpich2_nmad(), config.xeon_pair(),
                      sizes=[1, 64, 4096, 65536], reps=3)
    assert res.latencies == sorted(res.latencies)


def test_netpipe_bandwidth_grows_with_size():
    res = run_netpipe(config.mvapich2(), config.xeon_pair(),
                      sizes=[1024, 65536, 4 << 20], reps=3)
    assert res.bandwidths == sorted(res.bandwidths)


def test_netpipe_intra_node_faster_than_network():
    cluster = config.xeon_pair()
    net = run_netpipe(config.mpich2_nmad(), cluster, sizes=[64], reps=3)
    shm = run_netpipe(config.mpich2_nmad(), cluster, sizes=[64], reps=3,
                      intra_node=True)
    assert shm.latency_at(64) < net.latency_at(64) / 3


def test_netpipe_anysource_adds_constant():
    cluster = config.xeon_pair()
    base = run_netpipe(config.mpich2_nmad(), cluster, sizes=[8], reps=3)
    aso = run_netpipe(config.mpich2_nmad(), cluster, sizes=[8], reps=3,
                      anysource=True)
    assert aso.latency_at(8) > base.latency_at(8)


def test_overlap_reference_tracks_message_size():
    res = run_overlap(config.mpich2_nmad(), config.xeon_pair(),
                      sizes=[16 << 10, 256 << 10], compute=0.0, reps=2)
    assert res.at(256 << 10) > res.at(16 << 10)


RDV_SIZES = [16 << 10, 64 << 10, 256 << 10, 1 << 20]


def _overlap(spec, sizes, compute, reps=2):
    """(reference, loaded): the same stack without and with compute."""
    return tuple(run_overlap(spec, config.xeon_pair(), sizes=sizes,
                             compute=c, reps=reps) for c in (0.0, compute))


def test_overlap_non_pioman_is_additive():
    compute = 400e-6
    ref, res = _overlap(config.mpich2_nmad(), RDV_SIZES, compute)
    for size in RDV_SIZES:
        expected = ref.at(size) + compute
        assert res.at(size) == pytest.approx(expected, rel=0.05)


def test_overlap_pioman_approaches_max():
    compute = 400e-6
    # reference engine pinned: this documents the 2009 threaded design
    spec = config.mpich2_nmad_pioman(progress="pioman")
    ref, res = _overlap(spec, RDV_SIZES, compute)
    for size in RDV_SIZES:
        ideal = max(ref.at(size), compute)
        assert res.at(size) < ideal * 1.10
    # and decisively better than the non-overlapping sum
    size = 256 << 10
    assert res.at(size) < ref.at(size) + compute * 0.75
    nmad = run_overlap(config.mpich2_nmad(), config.xeon_pair(),
                       sizes=[size], compute=compute, reps=2)
    assert nmad.at(size) > 1.4 * res.at(size)


def test_overlap_comparators_do_not_overlap():
    compute = 400e-6
    for spec in (config.mvapich2(), config.openmpi_ib()):
        ref, res = _overlap(spec, RDV_SIZES, compute)
        for size in RDV_SIZES:
            assert res.at(size) > ref.at(size) + compute * 0.85
        assert res.at(256 << 10) > ref.at(256 << 10) + compute * 0.9


def test_eager_overlap_needs_pioman():
    """Fig. 7(a): 20 us of compute hides behind an eager send over MX
    only when PIOMan progresses it in the background."""
    compute, sizes = 20e-6, [4 << 10, 16 << 10]
    mx = ("mx",)
    loaded = {}
    for name, spec in (
            ("nmad", config.mpich2_nmad(rails=mx)),
            ("pml", config.openmpi_pml_mx()),
            ("btl", config.openmpi_btl_mx())):
        ref, loaded[name] = _overlap(spec, sizes, compute, reps=3)
        for size in sizes:
            assert loaded[name].at(size) > ref.at(size) + 0.75 * compute
    ref, pioman = _overlap(
        config.mpich2_nmad_pioman(rails=mx, progress="pioman"), sizes,
        compute, reps=3)
    size = 16 << 10
    assert pioman.at(size) < ref.at(size) + 0.5 * compute
    assert pioman.at(size) < loaded["nmad"].at(size)
