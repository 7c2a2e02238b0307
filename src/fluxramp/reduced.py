"""Two-dimensional reduction of the classical flow and its integral equations.

The guiding-center picture reduces the flow to the pair J = I1 + I2,
psi = phi1 + phi2.  In the shifted time s := s_phys - s0 (so that
I1 - I2 = phi * s along the trajectory) the change of variables

    x1 = |c||v| cos(psi) = c . v_perp,
    x2 = |c||v| sin(psi) + phi = phi - q . v,

turns the reduced system into

    x1' = x1/s - x2 + F(s, x1, x2),      x2' = x1,

with the nonlinearity

    F(s, x1, x2) = phi - x1/s - phi^2 s / (sqrt(x1^2 + (x2-phi)^2
                                                + phi^2 s^2) + x1),

where the square root equals J and the full denominator equals |q|^2/2.
Variation of constants with the homogeneous solutions s J_{j-1}(s),
s Y_{j-1}(s) (j = 1, 2) and base point at infinity gives the equivalent
integral equations

    x_j(s) = c1 s J_{j-1}(s) + c2 s Y_{j-1}(s)
             - (pi s / 2) * Integral_s^inf [Y_{j-1}(s) J_1(tau)
                            - J_{j-1}(s) Y_1(tau)] F(tau, x1, x2) dtau,

solved here by Picard iteration on a truncated interval [s_start, s_max].
The half-line integral cannot be carried on a machine; the truncation
tail is estimated from the measured decay of F and reported, never
hidden.  The full derivation of the change of variables lives in
docs/derivations.md and is protected by crosscheck_ode against both the
direct reduced ODE and mapped trajectories of the full flow.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import classical
from .errors import NoConvergence, NumericalFailure, ValidationError, check_working_set
from .ode import solve_ivp

_DENOM_FLOOR = 1e-12

# Gauss-Legendre nodes per panel and the panel width of the Picard grid:
# well over eight nodes per 2*pi kernel oscillation
QUAD_NODES = 6
PANEL_WIDTH = 0.25

# Picard sweeps before NoConvergence, the tolerance of the reduced ODE the
# crosscheck integrates (rtol; atol is 1e-2 of it), and the smallest s_start:
# closer to the origin the sweep stops contracting (six fixtures at s_max 120
# and 1000: 23-27 sweeps from 0.01, none from 0.001)
MAX_ITERS = 80
ODE_TOL = 1e-12
S_START_MIN = 0.01

# the residual's independent rule: this many times the panels of the solve,
# each with this many more Gauss nodes; it is formed on the refinement of
# RESIDUAL_BLOCK panels of the solve at a time (16,384 nodes of its own)
RESIDUAL_REFINE = 2
RESIDUAL_EXTRA_ORDER = 2
RESIDUAL_BLOCK = 1024

# Working set of a run per node of the residual's grid, the largest grid a
# run has.  Peak memory (ru_maxrss) of `reduced --phi 0.5 --s-max X` grew by
# 53-54, 53 and 53 bytes per residual node from X = 2500 to 5000, 10000 and
# 20000 (159,360 to 1,279,360 nodes; three runs), with --crosscheck by the
# same (its reduced ODE writes 16 bytes per sample, and runs after the
# sweep's Bessel values are dropped: its peak stays at the sweep's).  The
# Picard sweep sets the peak: its traced phase peak is 3.3, 9.7 and 32.4 MB
# at X = 1000, 3000 and 10000, the residual's 3.1, 7.1 and 21.3, the
# constant fit's 2.7, 7.8 and 26.0.  The estimate is the figure at 20000,
# where the sweep's 53 bytes per node dominate, with a little headroom.
BYTES_PER_NODE = 56

# constant extraction fits the trailing half of the solution grid and
# calls a homogeneous amplitude c1^2 + c2^2 below DEGENERATE_TOL zero
WINDOW_FRACTION = 0.5
DEGENERATE_TOL = 1e-12


def _bessel_arg(name, order, x):
    if order not in (0, 1):
        raise ValidationError(f"Bessel order must be 0 or 1, got {order!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} requires finite x")
    return x


def bessel_j(order, x):
    """Bessel function of the first kind J_0 or J_1 (scipy.special), x >= 0."""
    from scipy.special import j0, j1
    x = _bessel_arg("bessel_j", order, x)
    if np.any(x < 0):
        raise ValidationError("bessel_j requires x >= 0")
    out = (j0 if order == 0 else j1)(x)
    return float(out) if out.ndim == 0 else out


def bessel_y(order, x):
    """Bessel function of the second kind Y_0 or Y_1 (scipy.special), x > 0."""
    from scipy.special import y0, y1
    x = _bessel_arg("bessel_y", order, x)
    if np.any(x <= 0):
        raise ValidationError("bessel_y requires x > 0")
    out = (y0 if order == 0 else y1)(x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IntegralEqConfig:
    """Truncation and iteration controls.

    c1, c2 are the homogeneous coefficients playing the role of initial
    data at infinity.  The quadrature (QUAD_NODES Gauss-Legendre nodes on
    panels of width PANEL_WIDTH) and the sweep limit MAX_ITERS are module
    constants; an s_max whose run needs more than the working-set budget,
    at BYTES_PER_NODE per residual node (above s_max 299593), is refused.
    """

    s_max: float
    c1: float = 1.0
    c2: float = 0.0
    picard_tol: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.s_max) or self.s_max <= 0:
            raise ValidationError(f"s_max must be positive, got {self.s_max!r}")
        if not (np.isfinite(self.c1) and np.isfinite(self.c2)):
            raise ValidationError(
                f"c1 and c2 must be finite, got {self.c1!r} and {self.c2!r}")
        if not (1e-12 <= self.picard_tol <= 1e-6):
            raise ValidationError(
                f"picard_tol must lie in [1e-12, 1e-6], got {self.picard_tol!r}")
        # s_start > 0 only shortens the grid, so bound it from s_max alone
        finite = np.isfinite(self.s_max / PANEL_WIDTH)
        nodes = self.residual_nodes(0.0) if finite else math.inf
        check_working_set(BYTES_PER_NODE * nodes, f"{nodes:.4g} residual quadrature "
                                                   f"nodes (s_max {self.s_max:g})")

    def panels(self, s_start):
        """Gauss-Legendre panels of the Picard grid on [s_start, s_max]."""
        return max(4, math.ceil((self.s_max - s_start) / PANEL_WIDTH))

    def residual_nodes(self, s_start):
        """Nodes of the residual's finer grid on [s_start, s_max]."""
        return (RESIDUAL_REFINE * self.panels(s_start)
                * (QUAD_NODES + RESIDUAL_EXTRA_ORDER))


def f_nonlinearity(s, x1, x2, phi):
    """The nonlinearity F; raises NumericalFailure outside its region and
    ValidationError where x1^2 + (x2-phi)^2 + phi^2 s^2 overflows a double.

    Plain floats (the ODE right-hand side, once per stage) take a
    plain-float path, anything else the array path; one formula serves
    both.  ``** 2`` is libm pow on floats and exact squaring on arrays;
    the two differ in the last bit for about 1 square in 1200, so the paths
    agree to rounding, not bit for bit.  Products in place of the squares
    would make them agree, but would move the reduced ODE solution, and the
    crosscheck's ode_deviation, by about 1e-14.
    """
    scalar = type(s) is float and type(x1) is float and type(x2) is float
    if scalar:
        sqrt, any_ = math.sqrt, bool
    else:
        s = np.asarray(s, dtype=float)
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        sqrt, any_ = np.sqrt, np.any
    if any_(s <= 0):
        raise ValidationError("F is defined for s > 0")
    root = sqrt(x1 * x1 + (x2 - phi) ** 2 + (phi * s) ** 2)
    if any_(root == math.inf):
        raise ValidationError("x1^2 + (x2-phi)^2 + phi^2 s^2 in F overflows a double")
    denom = root + x1
    if any_(denom <= _DENOM_FLOOR * (1.0 + root)):
        raise NumericalFailure("sqrt(x1^2+(x2-phi)^2+phi^2 s^2) + x1 vanished")
    out = phi - x1 / s - phi * phi * s / denom
    return out if not scalar and out.ndim else float(out)


@dataclass(frozen=True)
class ReducedSolution:
    """Picard fixed point on the quadrature grid."""

    phi: float
    config: IntegralEqConfig
    s_start: float
    grid: np.ndarray          # all panel Gauss nodes, ascending
    x1: np.ndarray
    x2: np.ndarray
    iterations: int
    deltas: np.ndarray        # sup-norm distance between successive iterates
    tail_estimate: float
    bessel: tuple             # ((J0, J1), (Y0, Y1)) at the grid: the sweep's own arrays
    quad: "_PanelQuadrature"  # the Gauss-Legendre panels it was solved on

    def at(self, points):
        """(x1, x2) at ``points`` from the grid's per-panel polynomials."""
        quad = self.quad
        return quad.interpolate(points, quad.project(self.x1), quad.project(self.x2))


class _PanelQuadrature:
    """Composite Gauss-Legendre panels and their per-panel polynomials.

    Each panel's node values are projected on Legendre polynomials (its
    interpolating polynomial), which give the values between the nodes;
    a _Refinement of the panels gives the right-tail integrals.
    """

    def __init__(self, a, b, n_panels, order):
        from numpy.polynomial.legendre import leggauss
        self.order = order
        self.edges = np.linspace(a, b, n_panels + 1)
        self.half = 0.5 * (self.edges[1:] - self.edges[:-1])     # (P,)
        self.mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        self.xi, w = leggauss(order)
        pvals = _legendre(order - 1, self.xi)                           # (L, n)
        self.proj = pvals * w[None, :] * (2 * np.arange(order)[:, None] + 1) / 2.0

    def nodes(self, panels=slice(None)):
        """The Gauss nodes of ``panels`` (all by default), ascending."""
        return (self.mid[panels, None] + self.half[panels, None] * self.xi[None, :]).ravel()

    def project(self, values):
        """Per-panel Legendre coefficients (P, L) of the node ``values``.

        A block of two panels or more gets the bits of its rows in the
        whole grid's projection; BLAS rounds a one-row product differently.
        """
        return values.reshape(-1, self.order) @ self.proj.T

    def interpolate(self, points, *coefs):
        """The per-panel polynomials of each coefficient table at ``points``."""
        k = np.searchsorted(self.edges[1:-1], points, side="right")   # s_max in the last
        pvals = _legendre(self.order - 1, (points - self.mid[k]) / self.half[k])
        return tuple(np.einsum("ml,lm->m", coef[k], pvals) for coef in coefs)

class _Refinement:
    """A rule that splits each panel of ``solve`` into ``refine`` panels of
    ``order`` Gauss nodes, its fixed Legendre tables, and the right-tail
    integrals of its panel polynomials at the solve nodes.

    At refine 1 and the solve's order the fine rule is ``solve`` itself;
    otherwise the fine panels come from the same linspace, so for refine 2
    they share the solve's edges bit for bit.  Fine node j of sub-panel r
    sits at the local coordinate (2r + 1 - refine + xi_j)/refine of its
    solve panel; ``interp`` holds P_0..P_{n-1} there, (n, refine * order).
    Solve node i sits in sub-panel r_i, at u_i = refine xi_i + (refine - 1
    - 2 r_i) of it (xi_i itself at refine 1).  r_i ascends with xi_i, so
    the solve nodes of sub-panel r are one contiguous slice of each
    panel's, and ``upto[r]`` holds Q_0..Q_{order-1} at their u, (order,
    nodes of r).
    """

    def __init__(self, solve, refine, order):
        self.solve, self.refine = solve, refine
        self.fine = solve if (refine, order) == (1, solve.order) else _PanelQuadrature(
            solve.edges[0], solve.edges[-1], refine * solve.half.size, order)
        r = np.arange(refine)[:, None]
        self.interp = _legendre(solve.order - 1,
                                ((2 * r + 1 - refine + self.fine.xi) / refine).ravel())
        sub = np.minimum((refine * (solve.xi + 1) / 2).astype(int), refine - 1)
        u = refine * solve.xi + (refine - 1 - 2 * sub)
        cuts = np.searchsorted(sub, np.arange(refine + 1))
        self.upto = [_antiderivatives(_legendre(order, u[lo:hi]))
                     for lo, hi in zip(cuts[:-1], cuts[1:])]

    def tails(self, coef, panels, carry):
        """Right-tail integrals at the solve nodes of ``panels`` (a slice of
        solve panels) of the fine panel polynomials ``coef`` (c, fine panels
        of the block, order), with ``carry`` (c,) the integrals beyond the
        block.  Returns the tails (c, nodes) and the carry of the next block
        to the left: the suffix sums run sequentially from s_max, so every
        one is the same sum in the same order at any block size."""
        c, _, order = coef.shape
        fine = slice(panels.start * self.refine, panels.stop * self.refine)
        half = self.fine.half[fine]
        full = coef[:, :, 0] * 2.0 * half                         # (c, fine panels)
        seq = np.cumsum(np.concatenate([carry[:, None], full[:, ::-1]], axis=1), axis=1)
        suffix = seq[:, -2::-1]
        # a sub-panel's slice of nodes at a time, each from one product of
        # c * panels rows (two rows or more keep BLAS's bits)
        rows = coef.reshape(-1, self.refine, order)
        parts = []
        for r, upto in enumerate(self.upto):
            sub = slice(r, None, self.refine)     # the fine panels of sub-panel r
            # from the start of each fine panel to its solve nodes
            start = (rows[:, r] @ upto).reshape(c, -1, upto.shape[1])
            parts.append((full[:, sub, None] - start * half[sub, None]) + suffix[:, sub, None])
        return np.concatenate(parts, axis=2).reshape(c, -1), seq[:, -1]


def _legendre(n, x):
    """P_0..P_n at x, one pass of the three-term recurrence; (n+1,) + x.shape."""
    pvals = np.empty((n + 1,) + x.shape)
    pvals[0], pvals[1] = 1.0, x
    for k in range(1, n):
        pvals[k + 1] = ((2 * k + 1) * x * pvals[k] - k * pvals[k - 1]) / (k + 1)
    return pvals


def _antiderivatives(pvals):
    """Q_l = int_{-1}^x P_l = (P_{l+1} - P_{l-1})/(2l+1), Q_0 = x+1, from P_0..P_n."""
    return np.concatenate([[pvals[1] + 1.0], (pvals[2:] - pvals[:-2])
                           / (2 * np.arange(1, len(pvals) - 1) + 1)[:, None]])


class _IntegralMap:
    """Right-hand side of the integral equations at the nodes ``s``.

    Holds J0, J1, Y0, Y1 at the nodes (``bessel``, ((J0, J1), (Y0, Y1))),
    the homogeneous parts c1 s J_{j-1} + c2 s Y_{j-1} and the prefactor
    pi s/2; called with the tail integrals T_J = int_s^smax J1 F and
    T_Y = int_s^smax Y1 F it returns (x1, x2).
    """

    def __init__(self, s, c1, c2, bessel):
        self.j, self.y = bessel
        self.hom = tuple(c1 * s * j + c2 * s * y for j, y in zip(self.j, self.y))
        self.pref = 0.5 * np.pi * s

    def __call__(self, tail_j, tail_y):
        return tuple(h - self.pref * (y * tail_j - j * tail_y)
                     for h, j, y in zip(self.hom, self.j, self.y))

    def envelope(self):
        """max over the nodes and j of (pi s/2)(|J_{j-1}| + |Y_{j-1}|)."""
        (j0, j1), (y0, y1) = self.j, self.y
        return np.max(self.pref * np.maximum(np.abs(j0) + np.abs(y0),
                                             np.abs(j1) + np.abs(y1)))


def picard_solve(config, phi, s_start):
    """Iterate the truncated integral equations to their fixed point.

    The initial iterate is the homogeneous part.  Convergence is measured
    in the sup norm on the quadrature grid; NoConvergence carries the last
    contraction figures, and a sweep whose delta is not finite stops the
    iteration at once with NumericalFailure.  Inputs whose F overflows (on the
    homogeneous part, before any quadrature) raise ValidationError.
    """
    if not (np.isfinite(s_start) and s_start >= S_START_MIN):
        raise ValidationError(f"s_start must be at least {S_START_MIN:g}, got {s_start!r}")
    if config.s_max < 10.0 * s_start:
        raise ValidationError("s_max must be at least 10 * s_start")
    if not np.isfinite(phi) or phi <= 0:
        raise ValidationError(f"phi must be positive and finite, got {phi!r}")

    quad = _PanelQuadrature(s_start, config.s_max, config.panels(s_start), QUAD_NODES)
    # the tails come from the residual's routine, at refinement 1: the sweep's
    # own panels, one block spanning them all
    rule, whole = _Refinement(quad, 1, QUAD_NODES), slice(0, quad.half.size)
    s = quad.nodes()
    deltas = []
    # an overflow is raised below (by F or as a non-finite delta), not warned
    with np.errstate(over="ignore", invalid="ignore"):
        bessel = (bessel_j(0, s), bessel_j(1, s)), (bessel_y(0, s), bessel_y(1, s))
        imap = _IntegralMap(s, config.c1, config.c2, bessel)
        j1, y1 = imap.j[1], imap.y[1]
        x1, x2 = imap.hom
        for _ in range(MAX_ITERS):
            try:
                f = f_nonlinearity(s, x1, x2, phi)
            except ValidationError as exc:
                raise ValidationError(f"{exc} at phi {phi:g}, c1 {config.c1:g} and "
                                      f"c2 {config.c2:g}") from None
            # T_J then T_Y, one component at a time: stacked, their (2, nodes)
            # arrays raised peak RSS at s_max 5000 from 72.7 to 78.7 MiB
            new1, new2 = imap(*(rule.tails(quad.project(b * f)[None], whole, np.zeros(1))[0][0]
                                for b in (j1, y1)))
            delta = max(np.max(np.abs(new1 - x1)), np.max(np.abs(new2 - x2)))
            deltas.append(delta)
            if not np.isfinite(delta):
                raise NumericalFailure(f"Picard sweep {len(deltas)} gave a non-finite delta")
            x1, x2 = new1, new2
            if delta <= config.picard_tol:
                break
        else:
            raise NoConvergence("Picard iteration did not reach tolerance",
                                iterations=len(deltas), last_delta=deltas[-1])

    # Tail of the dropped integral int_smax^inf: |F| ~ C/tau measured on the
    # last panels, |J1|,|Y1| <= sqrt(2/(pi tau)), so the integral tail is
    # bounded by 2 C sqrt(2/pi) / sqrt(smax); the solution feels it through
    # the (pi s/2)(|J|+|Y|) prefactor.
    last = s >= s.max() - 4 * PANEL_WIDTH
    c_decay = float(np.max(np.abs(f[last] * s[last])))
    tail_int = 2.0 * c_decay * np.sqrt(2.0 / np.pi) / np.sqrt(config.s_max)
    tail_estimate = float(imap.envelope() * tail_int)

    return ReducedSolution(phi=phi, config=config, s_start=float(s_start),
                           grid=s, x1=x1, x2=x2, iterations=len(deltas),
                           deltas=np.asarray(deltas), tail_estimate=tail_estimate,
                           bessel=bessel, quad=quad)


def residual(solution):
    """Substitute the solution back with an independent, finer quadrature.

    Returns (res1, res2) on the solution grid; their sup norm is the
    advertised self-consistency figure.  The finer grid is never whole: it
    is walked in blocks (the refinement of RESIDUAL_BLOCK panels of the
    solve) down from s_max.  On a block, F comes from the solve's panel
    polynomials through the fixed interpolation table, J1 F and Y1 F are
    projected on the fine panels' Legendre coefficients, and the tails at
    the solve's nodes come from those through the fixed tail table and the
    suffix sum carried from the blocks to the right.  The integral map there
    uses the solve's own Bessel values.
    """
    solve = solution.quad
    rule = _Refinement(solve, RESIDUAL_REFINE, QUAD_NODES + RESIDUAL_EXTRA_ORDER)
    res1, res2 = np.empty_like(solution.grid), np.empty_like(solution.grid)
    carry = np.zeros(2)
    for hi in range(solve.half.size, 0, -RESIDUAL_BLOCK):
        panels = slice(max(hi - RESIDUAL_BLOCK, 0), hi)
        nodes = slice(panels.start * QUAD_NODES, hi * QUAD_NODES)
        (res1[nodes], res2[nodes]), carry = _residual_block(solution, rule, panels, carry)
    return res1, res2


def _residual_block(solution, rule, panels, carry):
    """The residual at the nodes of ``panels`` (a slice of solve panels),
    given ``carry``, the tail integrals beyond them; and the carry of the
    next block to the left.  Its arrays end with it."""
    cfg = solution.config
    nodes = slice(panels.start * QUAD_NODES, panels.stop * QUAD_NODES)
    x1, x2 = solution.x1[nodes], solution.x2[nodes]
    tau = rule.fine.nodes(slice(panels.start * rule.refine, panels.stop * rule.refine))
    # x1 and x2 rows together: two rows or more keep BLAS's bits
    x = rule.solve.project(np.stack([x1, x2])) @ rule.interp
    f = f_nonlinearity(tau, *x.reshape(2, -1), solution.phi)
    kernel = np.empty((2, tau.size))
    np.multiply(bessel_j(1, tau), f, out=kernel[0])
    np.multiply(bessel_y(1, tau), f, out=kernel[1])
    del x, tau, f       # before the projection: the block's peak stays below Picard's
    coef = rule.fine.project(kernel).reshape(2, -1, rule.fine.order)
    del kernel
    (tail_j, tail_y), carry = rule.tails(coef, panels, carry)
    bessel = tuple(tuple(a[nodes] for a in pair) for pair in solution.bessel)
    rhs1, rhs2 = _IntegralMap(solution.grid[nodes], cfg.c1, cfg.c2, bessel)(tail_j, tail_y)
    return (x1 - rhs1, x2 - rhs2), carry


def ode_rhs(s, x, phi):
    """Equivalent differential system: x1' = x1/s - x2 + F, x2' = x1."""
    f = f_nonlinearity(s, x[0], x[1], phi)
    return (x[0] / s - x[1] + f, x[0])


def integrate_ode(phi, s_span, x0, t_eval):
    """Integrate the reduced system directly with an adaptive RK method at
    the tolerance ODE_TOL; the integrator raises NumericalFailure on
    breakdown."""
    sol = solve_ivp(ode_rhs, s_span, x0, ODE_TOL, ODE_TOL * 1e-2, t_eval,
                    args=(phi,))
    return sol.t, sol.y[:, 0], sol.y[:, 1]


def to_reduced(traj):
    """Map a trajectory of the full flow to reduced time and unknowns.

    Returns (t, x1, x2, s0) with t = s - s0, x1 = c . v_perp,
    x2 = phi - q . v; s0 comes from the center-energy relation.
    """
    phi = traj.params.phi
    c, v, I1, H = classical.guiding_series(traj)
    s0 = float(np.mean(traj.s - (I1 - H) / phi))
    x1 = np.sum(c * classical.perp(v), axis=1)
    x2 = phi - np.sum(traj.q * v, axis=1)
    return traj.s - s0, x1, x2, s0


def from_reduced(t, x1, x2, phi):
    """A phase state of the full flow that to_reduced maps to (t, x1, x2).

    The inverse of the change of variables at one time: the free overall
    angle is fixed by phi2 = 0, and the trajectory constant s0 is gauged
    to 0, so the physical time equals the reduced time.
    """
    j = np.sqrt(x1 * x1 + (x2 - phi) ** 2 + (phi * t) ** 2)
    i1, i2 = 0.5 * (j + phi * t), 0.5 * (j - phi * t)
    if min(i1, i2) < 0:
        raise ValidationError("reduced state maps to negative action")
    amp = np.sqrt(max(j * j - (phi * t) ** 2, 0.0))
    psi = np.arctan2(x2 - phi, x1) if amp > 0 else 0.0
    rho, sig = np.sqrt(2 * i1), np.sqrt(2 * i2)
    q = rho * np.array([np.cos(psi), np.sin(psi)]) + np.array([sig, 0.0])
    a = classical.vector_potential(t, q, classical.FluxParams(phi))
    return classical.PhaseState(s=t, q=q, p=np.array([0.0, -sig]) + a)


def crosscheck_ode(solution, trajectory=None, window=None):
    """Maximum deviation between the Picard solution and an independent solver.

    Without a trajectory the reduced ODE is integrated from the solution's
    first grid value and compared at the grid nodes.  With a trajectory of
    the same phi the trajectory is mapped to reduced coordinates and
    compared, at its own times, with the solution's panel polynomials.
    The comparison runs on the overlap, optionally restricted to
    ``window`` in reduced time; NumericalFailure if it is empty.
    """
    if trajectory is None:
        t = solution.grid
    elif trajectory.params.phi != solution.phi:
        raise ValidationError(f"trajectory phi {trajectory.params.phi!r} differs from "
                              f"the solution's {solution.phi!r}")
    else:
        t, x1, x2, _ = to_reduced(trajectory)
    lo, hi = window if window is not None else (-np.inf, np.inf)
    mask = (t >= max(lo, solution.grid[0])) & (t <= min(hi, solution.grid[-1]))
    if not np.any(mask):
        raise NumericalFailure("the comparison interval misses the solution grid")
    t = t[mask]
    if trajectory is None:
        _, x1, x2 = integrate_ode(solution.phi, (solution.grid[0], t[-1]),
                                  (solution.x1[0], solution.x2[0]), t)
        ours = solution.x1[mask], solution.x2[mask]
    else:
        x1, x2, ours = x1[mask], x2[mask], solution.at(t)
    return float(max(np.max(np.abs(x1 - ours[0])), np.max(np.abs(x2 - ours[1]))))


@dataclass(frozen=True)
class ExtractedConstants:
    c1: float
    c2: float
    a0: float
    H_limit: float
    a0_from_amplitude: float


def extract_constants(solution):
    """Recover (c1, c2) and the outgoing energy scale a0 from the tail.

    (c1, c2) come from a joint least-squares fit of both components
    against the homogeneous basis {s J_{j-1}, s Y_{j-1}} over the trailing
    window.  The energy observable H = (J - phi s)/2 with
    J = sqrt(x1^2 + (x2 - phi)^2 + phi^2 s^2) is tail-averaged into
    H_limit, and a0 = sqrt(4 phi H_limit).  The Hankel amplitude of the
    homogeneous part gives the independent figure
    a0_from_amplitude = sqrt(2 (c1^2 + c2^2) / pi).
    """
    if solution.config.s_max < classical.FORWARD_S_MIN:
        raise ValidationError(f"constant extraction needs the solution to reach "
                              f"s >= {classical.FORWARD_S_MIN:g}")
    phi = solution.phi
    s = solution.grid
    window = slice(int(np.searchsorted(s, s[0] + WINDOW_FRACTION * (s[-1] - s[0]))), None)
    sw, x1, x2 = s[window], solution.x1[window], solution.x2[window]
    # rows (s J0, s Y0) then (s J1, s Y1), from the solve's Bessel values
    basis = np.empty((2, sw.size, 2))
    for rows, pair in zip(basis, zip(*solution.bessel)):
        for col, values in zip(rows.T, pair):
            np.multiply(sw, values[window], out=col)
    basis = basis.reshape(-1, 2)
    target = np.concatenate([x1, x2])
    coef = np.linalg.lstsq(basis, target, rcond=None)[0]
    c1, c2 = float(coef[0]), float(coef[1])
    amp2 = c1 * c1 + c2 * c2
    if amp2 < DEGENERATE_TOL:
        raise NumericalFailure("degenerate amplitude: homogeneous part is numerically zero")
    jred = np.sqrt(x1 ** 2 + (x2 - phi) ** 2 + (phi * sw) ** 2)
    H_limit = float(np.mean(0.5 * (jred - phi * sw)))
    return ExtractedConstants(c1=c1, c2=c2,
                              a0=float(np.sqrt(4.0 * phi * max(H_limit, 0.0))),
                              H_limit=H_limit,
                              a0_from_amplitude=float(np.sqrt(2.0 * amp2 / np.pi)))
