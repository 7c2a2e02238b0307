"""Exception types shared across the package, and the working-set budget
every study's validator holds a run to.

The CLI maps these onto its exit-code contract, so the distinctions matter:
validation problems are caught before any computation starts, physical events
(hitting the flux line) are reported rather than crashed on, and iteration
failures carry diagnostics.
"""


class FluxrampError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(FluxrampError, ValueError):
    """A parameter violates a documented precondition."""


class PunctureHit(FluxrampError):
    """The trajectory reached the guard radius around the flux line.

    This is a physical event, not a numerical failure; the hit time and the
    partial trajectory are attached.
    """

    def __init__(self, s_hit, trajectory=None):
        super().__init__(f"trajectory reached the puncture guard at s = {s_hit}")
        self.s_hit = s_hit
        self.trajectory = trajectory


class StepFailure(FluxrampError):
    """An integrator or fixed-point sweep could not complete a step."""


class BranchError(FluxrampError):
    """Angle samples too far apart to unwrap a continuous branch."""


class DenominatorVanishes(FluxrampError):
    """The nonlinearity denominator left the validity region."""


class NoConvergence(FluxrampError):
    """Fixed-point iteration failed to reach tolerance."""

    def __init__(self, message, iterations=None, last_delta=None):
        if iterations is not None:
            message = f"{message} (iterations={iterations}, last delta={last_delta})"
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta


class NotConverged(FluxrampError):
    """A tail estimate or fit did not settle below its threshold."""


class NoOverlap(FluxrampError):
    """Two solution objects share no common time interval."""


class GridTooCoarse(FluxrampError):
    """Grid refinement changed the answer by more than the allowed amount."""


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
