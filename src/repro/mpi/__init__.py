"""MPI-flavoured programming interface over the simulated stacks.

Rank programs are generator functions receiving a
:class:`~repro.mpi.api.Communicator`; communication calls are
``yield from``-ed (mpi4py-style lowercase API):

.. code-block:: python

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag=7, size=1024, data="hello")
        elif comm.rank == 1:
            msg = yield from comm.recv(src=0, tag=7)
            assert msg.data == "hello"

Collectives (barrier, bcast, reduce, allreduce, allgather, gather,
scatter, alltoall) are implemented over point-to-point with the classic
binomial/dissemination/pairwise algorithms.
"""

from repro.mpi.api import Communicator, Message
from repro.mpi.datatypes import Datatype, CONTIGUOUS, vector
from repro.mpich2.request import ANY_SOURCE, ANY_TAG

__all__ = [
    "Communicator",
    "Message",
    "Datatype",
    "CONTIGUOUS",
    "vector",
    "ANY_SOURCE",
    "ANY_TAG",
]
