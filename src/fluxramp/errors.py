"""Exception types shared across the package, and the working-set budget
every study's validator holds a run to.

One type per failure exit of the CLI contract: ValidationError (exit 2)
is raised before any computation starts, PunctureHit (3) reports the
physical event of hitting the flux line rather than crashing on it,
NoConvergence (4) carries the iteration figures, and NumericalFailure (1)
covers every other computation that cannot be trusted.
"""


class FluxrampError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FluxrampError, ValueError):
    """A parameter violates a documented precondition."""


class PunctureHit(FluxrampError):
    """The trajectory reached the guard radius around the flux line.

    This is a physical event, not a numerical failure; the hit time and the
    partial trajectory (its first sample at the start of the run) are
    attached.
    """

    def __init__(self, s_hit, trajectory):
        super().__init__(f"trajectory reached the puncture guard at s = {s_hit}")
        self.s_hit = s_hit
        self.trajectory = trajectory


class NoConvergence(FluxrampError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message, iterations=None, last_delta=None):
        if iterations is not None:
            message = f"{message} (iterations={iterations}, last delta={last_delta})"
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta


class NumericalFailure(FluxrampError):
    """A computation could not produce a trustworthy number: the integrator
    step fell below its minimum, a sweep or corrector drifted, a grid was
    too coarse, or a fit or branch did not settle.  The message says which."""


# Most memory, in bytes, a run may plan for.  Each study estimates its
# working set from its sizes (levels, samples) and refuses a larger run
# before any work; the README and benchmark runs plan for at most 60 MiB.
WORKING_SET_BUDGET = 1 << 30


def check_working_set(nbytes, what):
    """ValidationError when ``nbytes``, the estimated working set of a run
    of ``what``, exceeds WORKING_SET_BUDGET."""
    if nbytes > WORKING_SET_BUDGET:
        size = f"about {nbytes / 2 ** 20:.0f} MiB" if nbytes < 2 ** 1000 else "more"
        raise ValidationError(f"{what} need {size}, above the working-set budget "
                              f"of {WORKING_SET_BUDGET >> 20} MiB")
