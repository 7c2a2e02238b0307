"""Classical flow in the punctured plane under a linearly ramped flux.

The Hamiltonian is H(s) = (1/2)(p - a(s,q))^2 with

    a(s, q) = (1/2 - phi * s / |q|^2) * q_perp,   q_perp = (-q2, q1),

in rescaled units (unit cyclotron frequency, dimensionless ramp rate phi).
The module integrates the flow, splits the motion into guiding center plus
cyclotron circle, tracks the conserved quantity

    K = H - phi * arg q   (arg on a continuous branch),

and measures both asymptotic regimes: outgoing drift |q| ~ sqrt(2 phi s)
with H approaching a finite limit a0^2/(4 phi), and the bound-center past
with H ~ phi |s|.

Momentum equation, derived once from H and checked against finite
differences of H in the tests: with r2 = |q|^2 and g = 1/2 - phi*s/r2,

    dq/ds = v = p - g * q_perp,
    dp/ds = (2 phi s (v . q_perp) / r2^2) * q - g * v_perp.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailure, PunctureHit, ValidationError, check_working_set
from .ode import sample_times, solve_ivp

# radius of the event guard around the flux line: a crossing that narrow is
# only caught when the trajectory genuinely lingers near the line
R_GUARD = 1e-8

TOL_MIN, TOL_MAX = 1e-13, 1e-6

# Longest span |s_end - s_start| one run may integrate.  On one core a step
# takes 25-40 us; forward runs take about 1 step per unit s at tol 1e-6 and
# 7 at 1e-13, backward runs 2 and 14-18 (to -1e3 and -1e4); if those rates
# hold out to 1e6, the budget holds a run to roughly 40 s to 10 min.  The
# README and benchmark runs span at most 1e4.
MAX_SPAN = 1e6

# the regimes the analyses measure: the outgoing drift once the trajectory
# ends at s >= FORWARD_S_MIN (also the reduced study's constant extraction),
# the bound-center past once it reaches below BACKWARD_S_MAX, and the
# center-energy law fitted on at least FIT_MIN_SAMPLES samples
FORWARD_S_MIN = 1e3
BACKWARD_S_MAX = -1e2
FIT_MIN_SAMPLES = 10

# forward asymptotics: H is averaged over this trailing share of the samples
# (at least 8), and a relative spread above SPREAD_TOL means it has not settled
TAIL_FRACTION = 0.25
SPREAD_TOL = 0.05

# Working set per sample, from peak memory (ru_maxrss, 160 bytes a sample
# from 200001 to 800001 samples) and a tenth of headroom: the stepper's
# (n, 4) array, the guiding-center series and the CSV columns.
BYTES_PER_SAMPLE = 176


def perp(w):
    """Rotate a 2-vector by +90 degrees: (x, y) -> (-y, x)."""
    w = np.asarray(w, dtype=float)
    return np.stack([-w[..., 1], w[..., 0]], axis=-1)


@dataclass(frozen=True)
class FluxParams:
    """Rescaled flux ramp rate; the asymptotic statements need phi > 0."""

    phi: float

    def __post_init__(self):
        if not np.isfinite(self.phi) or self.phi <= 0:
            raise ValidationError(f"phi must be positive and finite, got {self.phi!r}")


@dataclass(frozen=True)
class PhaseState:
    """Phase-space point (q, p) at rescaled time s; q away from the origin."""

    s: float
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(2)
        p = np.asarray(self.p, dtype=float).reshape(2)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p)) and np.isfinite(self.s)):
            raise ValidationError("phase state must be finite")
        if np.hypot(q[0], q[1]) <= R_GUARD:
            raise ValidationError("position sits on the puncture (|q| <= guard radius)")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the flow; arrays indexed by sample."""

    params: FluxParams
    s: np.ndarray
    q: np.ndarray  # (n, 2)
    p: np.ndarray  # (n, 2)
    # deterministic integrator counters: rhs_evals, steps, rejected_steps
    diagnostics: Optional[dict] = None

    def __len__(self):
        return self.s.size


def vector_potential(s, q, params):
    """a(s, q) = (1/2 - phi s/|q|^2) q_perp; singular at the origin."""
    q = np.asarray(q, dtype=float)
    r2 = np.sum(q * q, axis=-1)
    if np.any(r2 == 0.0):
        raise ValidationError("vector potential is singular at q = 0")
    g = 0.5 - params.phi * np.asarray(s) / r2
    return np.expand_dims(g, -1) * perp(q) if q.ndim > 1 else g * perp(q)


def velocity(s, q, p, params):
    """Kinetic velocity v = p - a(s, q)."""
    return np.asarray(p, dtype=float) - vector_potential(s, q, params)


def hamiltonian(state, params):
    """H = |v|^2 / 2 >= 0."""
    v = velocity(state.s, state.q, state.p, params)
    return 0.5 * float(v @ v)


def _rhs_flat(s, y, phi):
    """Canonical equations (dq/ds, dp/ds) on the flat state (qx, qy, px, py)."""
    qx, qy, px, py = y
    r2 = qx * qx + qy * qy
    g = 0.5 - phi * s / r2
    vx = px + g * qy
    vy = py - g * qx
    w = 2.0 * phi * s * (vy * qx - vx * qy) / (r2 * r2)
    return (vx, vy, w * qx + g * vy, w * qy - g * vx)


def integrate(initial, s_end, params, tol=1e-10, samples=None):
    """Integrate the flow from ``initial.s`` to ``s_end`` (either direction).

    ``samples`` may be an int (uniform sample count >= 2, default 513) or
    an explicit array of times inside the span, strictly monotone in the
    direction of integration; more samples than the working-set budget
    admits (about 6.1 million), or a span |s_end - initial.s| above
    MAX_SPAN, raise ValidationError.  Raises PunctureHit
    (with the partial trajectory attached) if |q| reaches the guard
    radius R_GUARD; the integrator raises NumericalFailure on breakdown.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValidationError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol!r}")
    s0 = float(initial.s)
    s_end = float(s_end)
    if not np.isfinite(s_end):
        raise ValidationError(f"s_end must be finite, got {s_end!r}")
    if abs(s_end - s0) > MAX_SPAN:
        raise ValidationError(f"the span from s = {s0:g} to {s_end:g} is longer than "
                              f"the budget of {MAX_SPAN:g}")
    with np.errstate(over="ignore"):
        if not np.isfinite(hamiltonian(initial, params)):
            raise ValidationError("the initial energy H = |p - a|^2/2 overflows a double")
    if samples is None:
        samples = 513
    if np.isscalar(samples):
        n = int(samples)
        if n < 2:
            raise ValidationError("need at least two samples")
        check_working_set(BYTES_PER_SAMPLE * n, f"{n} samples")
        t_eval = np.linspace(s0, s_end, n)
    else:
        t_eval = sample_times(samples, s0, s_end)
        check_working_set(BYTES_PER_SAMPLE * t_eval.size, f"{t_eval.size} samples")
    if s_end == s0:
        return Trajectory(params=params, s=np.array([s0]),
                          q=initial.q[None, :].copy(), p=initial.p[None, :].copy(),
                          diagnostics={"rhs_evals": 0, "steps": 0, "rejected_steps": 0})

    guard2 = R_GUARD * R_GUARD

    def puncture_event(s, y):
        return y[0] * y[0] + y[1] * y[1] - guard2

    y0 = (*initial.q, *initial.p)
    sol = solve_ivp(_rhs_flat, (s0, s_end), y0, tol, tol * 1e-2, t_eval,
                    args=(params.phi,), event=puncture_event)
    traj = Trajectory(params=params, s=sol.t, q=sol.y[:, :2], p=sol.y[:, 2:],
                      diagnostics={"rhs_evals": sol.nfev, "steps": sol.steps,
                                   "rejected_steps": sol.rejected_steps})
    if sol.status == 1:
        raise PunctureHit(sol.t_event, trajectory=traj)
    return traj


def _wrap_angle(a):
    """Wrap the angle ``a`` to (-pi, pi]."""
    w = np.remainder(a + np.pi, 2.0 * np.pi) - np.pi
    return np.pi if w == -np.pi else w


def guiding_series(traj):
    """Vectorized guiding data along a trajectory: (c, v, I1, H)."""
    v = velocity(traj.s, traj.q, traj.p, traj.params)
    c = traj.q - perp(v)
    I1 = 0.5 * np.sum(c * c, axis=1)
    H = 0.5 * np.sum(v * v, axis=1)
    return c, v, I1, H


def unwrapped_arg(traj):
    """Continuous branch of arg q along the samples, first sample in (-pi, pi]."""
    raw = np.arctan2(traj.q[:, 1], traj.q[:, 0])
    d = np.diff(raw)
    dw = np.remainder(d + np.pi, 2.0 * np.pi) - np.pi
    if np.any(np.abs(dw) >= np.pi * (1.0 - 1e-9)):
        raise NumericalFailure("consecutive samples too far apart to unwrap; refine sampling")
    return np.concatenate([[raw[0]], raw[0] + np.cumsum(dw)])


def motion_constant_series(traj):
    """K(s) along the trajectory on one continuous branch."""
    _, _, I1, H = guiding_series(traj)
    return H - traj.params.phi * unwrapped_arg(traj)


@dataclass(frozen=True)
class CenterEnergyFit:
    s0: float
    slope: float
    max_residual: float


def center_energy_fit(traj):
    """Fit |c|^2/2 - H against s; the law reads |c|^2/2 - H = phi (s - s0).

    Returns the free-fit slope (should equal phi), the intercept-derived
    s0, and the worst absolute residual of the exact-slope relation.
    """
    if len(traj) < FIT_MIN_SAMPLES:
        raise ValidationError(f"center-energy fit needs at least {FIT_MIN_SAMPLES} samples")
    _, _, I1, H = guiding_series(traj)
    y = I1 - H
    phi = traj.params.phi
    slope, intercept = np.polyfit(traj.s, y, 1)
    s0 = -float(intercept) / phi
    resid = np.max(np.abs(y - phi * (traj.s - s0)))
    return CenterEnergyFit(s0=s0, slope=float(slope), max_residual=float(resid))


@dataclass(frozen=True)
class ForwardAsymptotics:
    a0: float
    drift_angle: float
    H_limit: float
    angle_residual: float
    q_over_sqrt_s: float


def asymptotics_forward(traj):
    """Outgoing-drift diagnostics on the tail of a forward trajectory; None
    while the tail of H has not settled (relative spread above SPREAD_TOL).

    H_limit is the tail average of H, a0 = sqrt(4 phi H_limit), the drift
    angle is the circular mean of arg q over the tail, and the residual
    compares it against the prediction a0^2/(4 phi^2) - K/phi (mod 2 pi),
    NaN where that has no digit left mod 2 pi (its ulp above 2 pi, or an
    overflow).
    K is evaluated at the first sample; a shift of K by 2 pi phi leaves the
    prediction invariant mod 2 pi, so no branch tracking is needed here.
    """
    if traj.s[-1] < FORWARD_S_MIN:
        raise ValidationError(f"forward asymptotics need the trajectory to end at "
                              f"s >= {FORWARD_S_MIN:g}")
    _, _, I1, H = guiding_series(traj)
    n_tail = max(8, int(len(traj) * TAIL_FRACTION))
    tail = slice(len(traj) - n_tail, None)
    H_limit = float(np.mean(H[tail]))
    # scaled before squaring: a tail of H near 1e200 would overflow
    spread = float(np.std(H[tail] / H_limit)) if H_limit > 0 else np.inf
    if spread > SPREAD_TOL:
        return None
    phi = traj.params.phi
    a0 = float(np.sqrt(4.0 * phi * H_limit))
    ang = np.arctan2(traj.q[tail, 1], traj.q[tail, 0])
    drift = float(np.angle(np.mean(np.exp(1j * ang))))
    K = float(H[0] - phi * np.arctan2(traj.q[0, 1], traj.q[0, 0]))
    # a0^2/(4 phi^2) - K/phi without phi^2, which underflows below 1e-162;
    # once eps |predicted| passes 2 pi (from about 1e16, phi below about
    # 1e-16 at H near 2) the angle mod 2 pi is rounding noise, and past 1e308
    # (at phi near 5e-324) it overflows
    predicted = (H_limit - K) / phi
    residual = (abs(_wrap_angle(drift - predicted))
                if abs(predicted) * np.finfo(float).eps <= 2.0 * np.pi else np.nan)
    ratio = float(np.hypot(*traj.q[-1]) / np.sqrt(traj.s[-1]))
    return ForwardAsymptotics(a0=a0, drift_angle=drift, H_limit=H_limit,
                              angle_residual=float(residual), q_over_sqrt_s=ratio)


@dataclass(frozen=True)
class BackwardAsymptotics:
    H_over_abs_s: float
    q_over_sqrt_abs_s: float


def asymptotics_backward(traj):
    """Bound-center diagnostics at the most negative sampled time."""
    i = int(np.argmin(traj.s))
    s = traj.s[i]
    if s >= BACKWARD_S_MAX:
        raise ValidationError(f"backward asymptotics need the trajectory to reach "
                              f"s < {BACKWARD_S_MAX:g}")
    _, _, _, H = guiding_series(traj)
    return BackwardAsymptotics(H_over_abs_s=float(H[i] / abs(s)),
                               q_over_sqrt_abs_s=float(np.hypot(*traj.q[i]) / np.sqrt(abs(s))))
