"""NAS skeleton behaviour: registry, scaling, kernel structure, and the
steady-state runs the campaign's NAS points use."""

import dataclasses

import pytest

from repro import config
from repro.experiments import ext_is_datatypes, fig8_nas
from repro.runtime import MPIRuntime
from repro.workloads.nas import KERNELS, adjust_procs, run_kernel
from repro.workloads.nas.base import (KernelClass, KernelSpec, SteadyBoard,
                                      grid_2d, grid_3d, square_side)
from tests.experiments.campaign_data import point_result


def test_all_paper_kernels_registered():
    for name in ("bt", "cg", "ep", "ft", "sp", "mg", "lu"):
        assert name in KERNELS
    assert "is" in KERNELS  # our extension


def test_adjust_procs_square_kernels():
    assert adjust_procs("bt", 8) == 9
    assert adjust_procs("bt", 32) == 36
    assert adjust_procs("sp", 16) == 16
    assert adjust_procs("cg", 8) == 8  # pow2 kernels unchanged


def test_square_side():
    assert square_side(36) == 6
    with pytest.raises(ValueError):
        square_side(8)


def test_grid_2d_factorizations():
    assert grid_2d(8) == (4, 2)
    assert grid_2d(16) == (4, 4)
    assert grid_2d(64) == (8, 8)
    assert grid_2d(1) == (1, 1)


def test_grid_3d_factorizations():
    for p in (8, 16, 32, 64):
        fx, fy, fz = grid_3d(p)
        assert fx * fy * fz == p
        assert max(fx, fy, fz) / min(fx, fy, fz) <= 4


def test_proc_rule_enforced():
    with pytest.raises(ValueError, match="power-of-two"):
        run_kernel("cg", "A", 6, config.mpich2_nmad())
    with pytest.raises(ValueError, match="square"):
        run_kernel("bt", "A", 8, config.mpich2_nmad())


def test_cpu_seconds_uses_gop_and_rate():
    spec = KERNELS["ep"]
    assert spec.cpu_seconds("C") == pytest.approx(86.0 / 0.098)


@pytest.mark.parametrize("kernel", ["ep", "cg", "ft", "mg"])
def test_kernel_runs_and_scales(kernel):
    t8 = run_kernel(kernel, "A", 8, config.mpich2_nmad()).time_seconds
    t16 = run_kernel(kernel, "A", 16, config.mpich2_nmad()).time_seconds
    assert 0 < t16 < t8


def test_bt_runs_on_square_grids():
    t9 = run_kernel("bt", "A", 9, config.mpich2_nmad()).time_seconds
    t16 = run_kernel("bt", "A", 16, config.mpich2_nmad()).time_seconds
    assert 0 < t16 < t9


def test_lu_wavefront_completes_all_proc_counts():
    for p in (2, 8, 16):
        res = run_kernel("lu", "A", p, config.mpich2_nmad())
        assert res.time_seconds > 0


def test_classes_ordered_by_work():
    for name in ("cg", "ft", "lu"):
        ta = run_kernel(name, "A", 8, config.mpich2_nmad()).time_seconds
        tb = run_kernel(name, "B", 8, config.mpich2_nmad()).time_seconds
        assert tb > ta


def test_result_metadata():
    res = run_kernel("ep", "A", 4, config.mpich2_nmad())
    assert res.kernel == "ep"
    assert res.cls == "A"
    assert res.nprocs == 4
    assert res.simulated_iters <= res.total_iters


def test_single_process_run():
    res = run_kernel("ep", "A", 1, config.mpich2_nmad())
    assert res.time_seconds == pytest.approx(5.4 / 0.098, rel=0.01)


def test_openmpi_lag_visible_in_ep():
    a = run_kernel("ep", "A", 4, config.mpich2_nmad()).time_seconds
    b = run_kernel("ep", "A", 4, config.openmpi_ib()).time_seconds
    assert b > a * 1.05


def test_is_extension_runs_with_datatypes():
    res = run_kernel("is", "A", 4, config.mpich2_nmad())
    assert res.time_seconds > 0


def test_pioman_overhead_small_on_nas():
    base = run_kernel("cg", "A", 8, config.mpich2_nmad()).time_seconds
    piom = run_kernel("cg", "A", 8, config.mpich2_nmad_pioman()).time_seconds
    assert abs(piom - base) / base < 0.03  # paper: "usually less than 3%"


def test_parallel_efficiency_helper():
    from repro.workloads.nas import parallel_efficiency

    results = [
        run_kernel("ep", "A", p, config.mpich2_nmad()) for p in (2, 4, 8)
    ]
    eff = parallel_efficiency(results)
    assert set(eff) == {2, 4, 8}
    assert eff[2] == pytest.approx(1.0)
    # EP is embarrassingly parallel: efficiency stays near 1
    assert eff[8] > 0.95


def test_parallel_efficiency_empty():
    from repro.workloads.nas import parallel_efficiency

    assert parallel_efficiency([]) == {}


def test_comm_bound_kernel_efficiency_drops():
    from repro.workloads.nas import parallel_efficiency

    results = [
        run_kernel("cg", "A", p, config.mpich2_nmad()) for p in (2, 16)
    ]
    eff = parallel_efficiency(results)
    assert eff[16] < 1.0


# ---------------------------------------------------------------------------
# steady-state runs (the campaign's ``nas`` points)
# ---------------------------------------------------------------------------

FAST_NAS_POINTS = [p for mod in (fig8_nas, ext_is_datatypes)
                   for p in mod.points(fast=True)]
NMAD_POINTS = [p for p in FAST_NAS_POINTS
               if p.params["stack"]["preset"]
               in ("mpich2_nmad", "mpich2_nmad_pioman")]


def _kernel_spec(point):
    kernel = point.params["kernel"]
    return KERNELS["is" if kernel == "is-contig" else kernel]


def _fixed_count_twin(point):
    """The same point forced to its kernel's fixed simulated count."""
    cap = _kernel_spec(point).default_sim_iters
    return dataclasses.replace(point, params=dict(point.params,
                                                  sim_iters=cap))


@pytest.mark.parametrize("point", NMAD_POINTS, ids=lambda p: p.point_id)
def test_steady_projection_matches_fixed_count_on_nmad_points(point):
    steady = point_result(point.config())
    fixed = point_result(_fixed_count_twin(point).config())
    assert steady["total_iters"] == fixed["total_iters"]
    assert steady["simulated_iters"] <= fixed["simulated_iters"]
    assert steady["time_seconds"] == pytest.approx(fixed["time_seconds"],
                                                   rel=1e-4)


#: simulated iterations of each fast fig8 point, by kernel in the order
#: bt cg ep ft lu mg sp (None: the paper has no PIOMan MG/LU run)
FIG8_FAST_STOPS = {
    "8/MVAPICH2": (3, 3, 1, 3, 3, 3, 3),
    "8/Open_MPI": (3, 3, 1, 3, 3, 3, 3),
    "8/MPICH2-NMad_NO_PIOMan": (2, 2, 1, 2, 3, 2, 2),
    "8/MPICH2-NMad_with_PIOMan": (2, 2, 1, 2, None, None, 2),
    "16/MVAPICH2": (3, 5, 1, 3, 3, 3, 3),
    "16/Open_MPI": (3, 5, 1, 3, 3, 3, 3),
    "16/MPICH2-NMad_NO_PIOMan": (3, 5, 1, 3, 3, 3, 3),
    "16/MPICH2-NMad_with_PIOMan": (3, 5, 1, 3, None, None, 3),
}
IS_FAST_STOPS = {
    "strided (datatypes)/4": 2, "strided (datatypes)/8": 2,
    "contiguous/4": 2, "contiguous/8": 2,
    "strided, MVAPICH2/4": 3, "strided, MVAPICH2/8": 3,
}


def _expected_stops():
    """Both tables keyed by point id."""
    stops = {f"ext_is_datatypes:{key}": n for key, n in IS_FAST_STOPS.items()}
    for row, row_stops in FIG8_FAST_STOPS.items():
        for kernel, n in zip(("bt", "cg", "ep", "ft", "lu", "mg", "sp"),
                             row_stops):
            if n is not None:
                stops[f"fig8_nas:{row}/{kernel}"] = n
    return stops


EXPECTED_STOPS = _expected_stops()


def test_fast_campaign_nas_stop_iterations_are_pinned():
    """The stop table names every fast NAS point: 153 iterations, not 398."""
    assert {p.point_id for p in FAST_NAS_POINTS} == set(EXPECTED_STOPS)
    assert sum(EXPECTED_STOPS.values()) == 153
    fixed = sum(min(_kernel_spec(p).classes[p.params["cls"]].iters,
                    _kernel_spec(p).default_sim_iters)
                for p in FAST_NAS_POINTS)
    assert fixed == 398


@pytest.mark.parametrize("point", FAST_NAS_POINTS, ids=lambda p: p.point_id)
def test_fast_campaign_nas_point_stops_where_pinned(point):
    """A model change that makes a kernel aperiodic must show up here."""
    result = point_result(point.config())
    assert result["simulated_iters"] == EXPECTED_STOPS[point.point_id]


def test_board_waits_for_every_rank_then_projects_each_rank():
    board = SteadyBoard(2)
    for delta in (5.0, 1.0, 1.0):
        assert not board.post(0, delta)
    # rank 0 repeats from its third delta on; rank 1 only from its fourth
    for delta in (5.0, 2.0, 3.0):
        assert not board.post(1, delta)
    assert not board.post(0, 1.0)
    assert board.post(1, 3.0)
    assert board.k == 4
    # a post after the stop changes nothing
    assert board.post(0, 99.0) and board.k == 4
    total, period = board.projection(10)
    assert period == 1
    assert total == max(5.0 + 3 * 1.0 + 6 * 1.0, 5.0 + 2.0 + 3.0 + 3.0
                        + 6 * 3.0)


def test_board_finds_a_period_of_two():
    board = SteadyBoard(1)
    done = [board.post(0, d) for d in (4.0, 1.0, 2.0, 1.0, 2.0)]
    assert done == [False, False, False, False, True]
    assert board.k == 5 and board.period_at(0, 5) == 2
    total, period = board.projection(9)
    assert period == 2
    assert total == pytest.approx(4.0 + 1.0 + 2.0 + 1.0 + 2.0 + 4 * 1.5)


def test_default_run_is_the_fixed_count():
    """run_kernel's default simulates default_sim_iters, posting nothing."""
    result = run_kernel("lu", "A", 16, config.mpich2_nmad())
    assert result.simulated_iters == KERNELS["lu"].default_sim_iters == 8
    assert result.period == 0 and not result.capped


@pytest.fixture
def scratch_kernel():
    """Register throw-away kernels under test names; drop them after."""
    names = []

    def register(name, iteration):
        KERNELS[name] = KernelSpec(
            name=name, rate_gflops=1.0, default_sim_iters=6,
            classes={"A": KernelClass("A", gop=40.0, iters=40, grid=(1,))},
            iteration=iteration)
        names.append(name)
        return name

    yield register
    for name in names:
        KERNELS.pop(name, None)


def test_aperiodic_kernel_hits_the_cap_bit_identically(scratch_kernel):
    def iteration(comm, ctx, i):
        yield from comm.compute(ctx.compute_per_iter * (1 + i))
        yield from comm.allreduce(size=64)

    name = scratch_kernel("aperiodic", iteration)
    fixed = run_kernel(name, "A", 4, config.mpich2_nmad())
    steady = run_kernel(name, "A", 4, config.mpich2_nmad(), steady=True)
    assert steady.capped and steady.period == 0
    assert not fixed.capped
    assert steady.simulated_iters == fixed.simulated_iters == 6
    assert steady.time_seconds == fixed.time_seconds


def test_periodic_kernel_stops_early(scratch_kernel):
    def iteration(comm, ctx, i):
        yield from comm.compute(ctx.compute_per_iter)
        yield from comm.allreduce(size=64)

    name = scratch_kernel("periodic", iteration)
    fixed = run_kernel(name, "A", 4, config.mpich2_nmad())
    steady = run_kernel(name, "A", 4, config.mpich2_nmad(), steady=True)
    assert not steady.capped and steady.period == 1
    assert steady.simulated_iters < fixed.simulated_iters
    assert steady.time_seconds == pytest.approx(fixed.time_seconds, rel=1e-4)


def test_steady_run_still_reports_a_real_deadlock(scratch_kernel):
    def iteration(comm, ctx, i):
        yield from comm.compute(ctx.compute_per_iter)
        if comm.rank == 0:
            yield from comm.send(1, tag=("step", i), size=64)
        else:
            # iteration 1 waits on a tag rank 0 never sends
            yield from comm.recv(src=0, tag=("step", i + (i == 1)))

    name = scratch_kernel("deadlock", iteration)
    with pytest.raises(RuntimeError, match="did not complete"):
        run_kernel(name, "A", 2, config.mpich2_nmad(), steady=True)


def test_halted_run_abandons_blocked_ranks():
    def program(comm):
        if comm.rank == 1:
            yield from comm.recv(src=0, tag=1)   # never sent
        return comm.rank
        yield  # pragma: no cover

    res = MPIRuntime(2, config.mpich2_nmad()).run(program,
                                                  halted=lambda: True)
    assert res.rank_results == [0, None]
    assert res.rank_times[1] == -1.0
    with pytest.raises(RuntimeError, match="did not complete"):
        MPIRuntime(2, config.mpich2_nmad()).run(program,
                                                halted=lambda: False)
