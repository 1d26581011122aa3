"""Exception types used by the simulation engine."""


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine itself."""


class DeadlockError(SimulationError):
    """Raised by :meth:`Simulator.run` when tasks remain but no events do.

    A discrete-event simulation has deadlocked when live tasks are all
    blocked on events that nothing can ever trigger.  This mirrors a real
    MPI deadlock (e.g. two ranks both in a blocking receive).
    """

