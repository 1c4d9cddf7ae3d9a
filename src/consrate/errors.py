"""Exception types shared across the solver modules."""


class InfeasibleProblem(ValueError):
    """The problem's value function is not guaranteed finite for these inputs."""


class MonotonicityError(RuntimeError):
    """The monotone iteration violated its ordering beyond resolvent tolerance.

    Signals a resolvent or lambda-schedule misconfiguration. Carries the
    iteration trace recorded up to the abort.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DivergenceError(RuntimeError):
    """A Monte Carlo functional shows signs of an infinite value."""


class HorizonError(RuntimeError):
    """A simulation horizon was too short for the requested estimator."""


class InsufficientMemory(MemoryError):
    """A computation would need more memory than the process may still take."""
