"""Exception types shared across the package.

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
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta


class NotConverged(FluxrampError):
    """A tail estimate or fit did not settle below its threshold."""


class NoOverlap(FluxrampError):
    """Two solution objects share no common time interval."""


class GridTooCoarse(FluxrampError):
    """Grid refinement changed the answer by more than the allowed amount."""


class DegenerateGap(FluxrampError):
    """Two eigenvalues are too close to divide by their gap."""
