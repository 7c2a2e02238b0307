"""Numerical laboratory for charged-particle dynamics in a punctured plane
threaded by a linearly ramped magnetic flux line.

Modules by topic: ``classical`` (flow integration, guiding centers,
conserved quantity, asymptotics), ``reduced`` (the equivalent Bessel-kernel
integral equations, their Picard solver and the cylinder functions J0, J1,
Y0, Y1 from scipy.special), ``spectral`` (the Landau-type
eigenfamily, coupling operator and kernel bound), ``adiabatic``
(propagators and error scaling), ``ode`` (the DOP853 stepper behind
the flow and the reduced ODE), ``cli`` (file-emitting front end).
"""

__version__ = "0.1.0"

from . import adiabatic, classical, errors, ode, reduced, spectral  # noqa: F401,E402
