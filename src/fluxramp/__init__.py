"""Numerical laboratory for charged-particle dynamics in a punctured plane
threaded by a linearly ramped magnetic flux line.

Modules by topic: ``classical`` (flow integration, guiding centers,
conserved quantity, asymptotics), ``reduced`` (the equivalent Bessel-kernel
integral equations, their Picard solver and the cylinder functions J0, J1,
Y0, Y1 from scipy.special), ``spectral`` (the Landau-type
eigenfamily, coupling operator and kernel bound), ``adiabatic``
(propagators and error scaling), ``ode`` (the DOP853 stepper behind
the flow and the reduced ODE), ``cli`` (file-emitting front end).

Every study runs in a fresh process, so no module imports scipy at module
level: each scipy name is imported inside the function that calls it, and
a classical, adiabatic or closed-form spectral run loads no scipy module.
"""

__version__ = "0.1.0"

from . import adiabatic, classical, errors, ode, reduced, spectral  # noqa: F401,E402
