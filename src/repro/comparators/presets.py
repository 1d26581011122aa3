"""Calibrated comparator cost profiles.

Calibration targets (paper Section 4.1):

* MVAPICH2: 1.5 us IB latency, ~1400 MiB/s peak (registration cache,
  "finely-tuned" native path).
* Open MPI 1.2.7 (openib BTL + IB MTL): 1.6 us IB latency, lower peak
  bandwidth and a medium-size dip (pipelined protocol), below
  MPICH2-NewMadeleine between ~8 KiB and ~256 KiB.
* Open MPI over MX: the PML/CM (MTL) path is fast, the BTL path is
  visibly slower (Fig. 6b / 7a).
* Open MPI lags on EP and LU regardless of process count (Fig. 8);
  the paper observes this without attributing a mechanism — modeled as
  a compute-efficiency factor.
"""

from repro.comparators.native import NativeCosts

#: MVAPICH2 1.0.3 over ConnectX InfiniBand.
MVAPICH2_IB = NativeCosts(
    send_overhead=0.18e-6,
    recv_overhead=0.17e-6,
    match_cost=0.28e-6,
    eager_threshold=12 * 1024,
    pipeline_chunk=1 << 20,
    per_chunk_cost=1.0e-6,
    bw_derate=0.997,
    shm_latency=0.30e-6,
    shm_bandwidth=2.5e9,
    compute_efficiency=1.0,
)

#: Open MPI 1.2.7 over ConnectX InfiniBand (openib BTL + MTL).
OPENMPI_IB = NativeCosts(
    send_overhead=0.22e-6,
    recv_overhead=0.23e-6,
    match_cost=0.34e-6,
    eager_threshold=12 * 1024,
    pipeline_chunk=128 * 1024,
    per_chunk_cost=14.0e-6,
    bw_derate=0.93,
    shm_latency=0.45e-6,
    shm_bandwidth=2.0e9,
    compute_efficiency=0.92,
)

#: Open MPI over Myrinet MX through the CM PML (MTL path): lean.
OPENMPI_PML_MX = NativeCosts(
    send_overhead=0.15e-6,
    recv_overhead=0.15e-6,
    match_cost=0.30e-6,
    eager_threshold=12 * 1024,
    pipeline_chunk=256 * 1024,
    per_chunk_cost=4.0e-6,
    bw_derate=0.95,
    shm_latency=0.45e-6,
    shm_bandwidth=2.0e9,
    compute_efficiency=0.92,
)

#: Open MPI over Myrinet MX through the BTL path: extra copies/layers.
OPENMPI_BTL_MX = NativeCosts(
    send_overhead=1.20e-6,
    recv_overhead=0.90e-6,
    match_cost=0.90e-6,
    eager_threshold=12 * 1024,
    pipeline_chunk=128 * 1024,
    per_chunk_cost=8.0e-6,
    bw_derate=0.90,
    shm_latency=0.45e-6,
    shm_bandwidth=2.0e9,
    compute_efficiency=0.92,
)
