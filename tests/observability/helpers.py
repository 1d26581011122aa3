"""Shared helpers for the observability test suite."""

from repro import config
from repro.runtime import run_mpi
from repro.simulator import Trace

#: below nmad's 16 KiB eager threshold
EAGER_SIZE = 1024
#: above every eager threshold -> rendezvous
RDV_SIZE = 256 * 1024


def run_traced(program, spec=None, nprocs=2, **kw):
    """Run ``program`` with a fresh full trace attached; return the trace.

    The default spec is the PIOMan stack on its reference engine.
    """
    trace = Trace()
    run_mpi(program, nprocs, spec or config.mpich2_nmad_pioman(),
            cluster=config.xeon_pair(), trace=trace, **kw)
    return trace
