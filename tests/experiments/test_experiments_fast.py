"""Fast-mode smoke tests: every experiment module runs and keeps its shape."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig4_infiniband,
    fig5_multirail,
    fig6_pioman_overhead,
    fig7_overlap,
    fig8_nas,
)


def test_registry_lists_all_figures():
    assert EXPERIMENTS == [
        "fig4_infiniband", "fig5_multirail", "fig6_pioman_overhead",
        "fig7_overlap", "fig8_nas",
    ]


def test_fig4_fast_shape():
    data = fig4_infiniband.run(fast=True)
    lat = data["latency"]
    assert set(lat) == {"MVAPICH2", "Open MPI", "MPICH2:Nem:Nmad:IB",
                        "MPICH2:Nem:Nmad:IB w/AS"}
    i = 0
    assert (lat["MVAPICH2"][i] < lat["Open MPI"][i]
            < lat["MPICH2:Nem:Nmad:IB"][i]
            < lat["MPICH2:Nem:Nmad:IB w/AS"][i])
    assert len(data["bandwidth"]) == 3
    # the ANY_SOURCE gap stays constant as the size grows
    gaps = [a - b for a, b in zip(lat["MPICH2:Nem:Nmad:IB w/AS"],
                                  lat["MPICH2:Nem:Nmad:IB"])]
    assert gaps[-1] == pytest.approx(gaps[0], rel=0.2)


def test_fig5_fast_shape():
    data = fig5_multirail.run(fast=True)
    multi = data["latency"]["MPICH2:Nmad:Multi-MX-IB"]
    ib = data["latency"]["MPICH2:Nmad:IB"]
    mx = data["latency"]["MPICH2:Nmad:MX"]
    for i in range(len(data["lat_sizes"])):
        # small messages ride the fastest rail
        assert multi[i] == pytest.approx(ib[i], rel=0.01)
        assert multi[i] < mx[i]
    bw = {name: curve[-1] for name, curve in data["bandwidth"].items()}
    assert bw["MPICH2:Nmad:Multi-MX-IB"] > bw["MPICH2:Nmad:IB"] \
        > bw["MPICH2:Nmad:MX"]
    assert bw["MPICH2:Nmad:Multi-MX-IB"] \
        > 0.85 * (bw["MPICH2:Nmad:IB"] + bw["MPICH2:Nmad:MX"])


def test_fig6_fast_shape():
    data = fig6_pioman_overhead.run(fast=True)
    shm = data["shm"]
    assert shm["MPICH2:Nemesis"][0] < shm["Open MPI"][0] \
        < shm["MPICH2:Nemesis:PIOMan"][0]
    mx = data["mx"]
    assert mx["MPICH2:Nem:Nmad:PIOM:MX"][0] > mx["MPICH2:Nem:Nmad:MX"][0]
    # PIOMan's overhead is constant in size on both paths
    for curves, with_pioman, without, spread in (
            (shm, "MPICH2:Nemesis:PIOMan", "MPICH2:Nemesis", 0.1e-6),
            (mx, "MPICH2:Nem:Nmad:PIOM:MX", "MPICH2:Nem:Nmad:MX", 0.2e-6)):
        gaps = [a - b for a, b in zip(curves[with_pioman], curves[without])]
        assert max(gaps) - min(gaps) < spread


def test_fig7_fast_shape():
    data = fig7_overlap.run(fast=True)
    rdv = data["rdv"]
    size = data["rdv_sizes"][2]  # 256K
    i = data["rdv_sizes"].index(size)
    assert rdv["MPICH2:Nem:Nmad:PIOMan:IB"][i] < rdv["MPICH2:Nem:NMad:IB"][i]


def test_fig8_fast_shape():
    data = fig8_nas.run(fast=True)
    assert data["class"] == "A"
    tables = data["tables"]
    assert set(data["procs"]) == {8, 16}
    for p in data["procs"]:
        nmad = tables[p]["MPICH2-NMad_NO_PIOMan"]
        ompi = tables[p]["Open_MPI"]
        for i, kernel in enumerate(data["kernels"]):
            assert nmad[i] is not None and nmad[i] > 0
            assert ompi[i] > nmad[i] * 1.02
            # on par with the network-tailored MVAPICH2
            assert nmad[i] == pytest.approx(tables[p]["MVAPICH2"][i],
                                            rel=0.05)
    for i, kernel in enumerate(data["kernels"]):
        assert (tables[16]["MPICH2-NMad_NO_PIOMan"][i]
                < tables[8]["MPICH2-NMad_NO_PIOMan"][i])
    # PIOMan costs under 3 % where it runs
    for kernel in ("cg", "ft", "sp"):
        i = data["kernels"].index(kernel)
        base = tables[16]["MPICH2-NMad_NO_PIOMan"][i]
        assert tables[16]["MPICH2-NMad_with_PIOMan"][i] \
            == pytest.approx(base, rel=0.03)
    # PIOMan unavailable for MG/LU, as in the paper
    piom = tables[8]["MPICH2-NMad_with_PIOMan"]
    mg_i = data["kernels"].index("mg")
    lu_i = data["kernels"].index("lu")
    assert piom[mg_i] is None and piom[lu_i] is None


def test_fig_main_functions_print(capsys):
    fig4_infiniband.main(fast=True)
    out = capsys.readouterr().out
    assert "Fig 4(a)" in out and "Fig 4(b)" in out and "paper reference" in out
