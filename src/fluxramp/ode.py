"""Explicit Dormand-Prince 8(5,3) integration on float tuples.

``solve_ivp`` reproduces scipy's ``DOP853`` (Hairer, Norsett and Wanner,
*Solving ODEs I*, II.4-II.6) for a right-hand side ``fun(t, y, *args)``
that takes and returns a tuple of floats.  It uses the same tableau,
frozen below as module constants (the tests hold it bit for bit to
``scipy.integrate._ivp.dop853_coefficients``), and scipy's controller
unchanged:

* error norm  |h| ||e5||^2 / sqrt((||e5||^2 + 0.01 ||e3||^2) n), with
  e5, e3 the two embedded error estimates divided componentwise by
  atol + rtol max(|y_old|, |y_new|);
* step factor  min(10, 0.9 err^(-1/8)) on acceptance (at most 1 right
  after a rejection), max(0.2, 0.9 err^(-1/8)) on rejection;
* minimum step 10 ulp of t, and the HNW initial step guess.

A step that falls below its minimum raises NumericalFailure, where scipy
returns a status of -1.  One deliberate difference: a step size that is
not a number (a NaN right-hand side at the start, or one whose scaled norm
overflows) fails the same way, where scipy's loop would never terminate or
divide by a zero step guess.

The saving over scipy is the stage loop: per state dimension, one step,
the three extra dense-output stages and the 7-coefficient interpolant are
generated as straight-line Python on the first call, so a step does no
array work.  Dense output is built only on steps that hold a sample time
or an event crossing, and writes each sample in place as a row of one
``(n_samples, dim)`` array; the result keeps that layout, not scipy's.

The module imports no scipy: only a run whose terminal event fires loads
``scipy.optimize`` for brentq.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class OdeResult:
    """Rows ``y[j]`` of ``dim`` floats at ``t[j]``, the sample times reached.

    ``status`` is 0 at the end of the span, 1 after the terminal event (at
    ``t_event``, else None); ``nfev`` counts every call of ``fun``.
    """

    t: np.ndarray
    y: np.ndarray
    status: int
    t_event: float | None
    nfev: int
    steps: int
    rejected_steps: int


def sample_times(t_eval, t0, t_bound):
    """``t_eval`` as a float array, checked to be non-empty, finite, inside
    the span and strictly monotone in the direction of integration."""
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or t_eval.size == 0:
        raise ValidationError("sample times must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(t_eval)):
        raise ValidationError("sample times must be finite")
    if np.any(t_eval < min(t0, t_bound)) or np.any(t_eval > max(t0, t_bound)):
        raise ValidationError("sample times fall outside the integration span")
    d = np.diff(t_eval) * (1.0 if t_bound >= t0 else -1.0)
    if np.any(d <= 0):
        raise ValidationError("sample times must be strictly monotone in the "
                              "direction of integration")
    return t_eval


def _rms(v):
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _initial_step(fun, args, t0, y0, f0, t_bound, direction, rtol, atol):
    """HNW's starting step guess for an error estimator of order 7."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / sc for y, sc in zip(y0, scale)])
    d1 = _rms([f / sc for f, sc in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not h0 > 0:
        # d1 overflowed (or is NaN): no step can be sized; solve_ivp fails
        # the run on a NaN step
        return math.nan
    f1 = fun(t0 + h0 * direction,
             tuple(y + h0 * direction * f for y, f in zip(y0, f0)), *args)
    d2 = _rms([(a - b) / sc for a, b, sc in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def solve_ivp(fun, t_span, y0, rtol, atol, t_eval, args=(), event=None):
    """Integrate y' = fun(t, y, *args) over ``t_span``, sampled at ``t_eval``.

    ``event(t, y)``, if given, is terminal: a sign change (or zero) between
    two step ends is located by brentq on the dense interpolant, the
    integration stops there with status 1, and ``t_event`` holds the
    root.  Samples up to the stopping time are returned.  NumericalFailure
    when the step falls below 10 ulp of t (or is not a number).
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    if t0 == t_bound:
        raise ValidationError("the integration span is empty")
    y = tuple(float(v) for v in y0)
    times = sample_times(t_eval, t0, t_bound)
    step, dense, interp = _stepper(len(y))
    direction = 1.0 if t_bound >= t0 else -1.0
    towards = direction * math.inf

    f = fun(t0, y, *args)
    h_abs = _initial_step(fun, args, t0, y, f, t_bound, direction, rtol, atol)
    nfev, steps, rejected = 2, 0, 0
    g = event(t0, y) if event is not None else None
    t_event = None
    samples = np.empty((times.size, len(y)))
    i_next, n_eval = 0, times.size
    t = t0
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, towards) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:
                raise NumericalFailure("integrator failed: "
                                       "Required step size is below 10 ulp of t.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err, stages = step(fun, args, t, y, f, h, rtol, atol)
            nfev += 12
            if err < 1:
                factor = (MAX_FACTOR if err == 0
                          else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if step_rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        steps += 1
        t_stop = t_new
        coeffs = None
        if event is not None:
            g_new = event(t_new, y_new)
            if (g <= 0 <= g_new) or (g >= 0 >= g_new):
                from scipy.optimize import brentq
                coeffs = dense(fun, args, t, h, y, y_new, stages)
                nfev += 3
                t_stop = t_event = brentq(lambda s: event(s, interp(coeffs, y, (s - t) / h)),
                                          t, t_new, xtol=4 * EPS, rtol=4 * EPS)
                status = 1
            g = g_new
        while i_next < n_eval and direction * (times.item(i_next) - t_stop) <= 0:
            if coeffs is None:
                coeffs = dense(fun, args, t, h, y, y_new, stages)
                nfev += 3
            samples[i_next] = interp(coeffs, y, (times.item(i_next) - t) / h)
            i_next += 1
        t, y, f = t_new, y_new, f_new
        if status is None and direction * (t - t_bound) >= 0:
            status = 0
    return OdeResult(t=times[:i_next], y=samples[:i_next], status=status,
                     t_event=t_event, nfev=nfev, steps=steps, rejected_steps=rejected)


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) tableau
# ---------------------------------------------------------------------------

# Stages of one step (f at the new point is stage N_STAGES), stages with the
# dense output's extra ones, and coefficients of the interpolant.
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7


def _tableau(shape, entries):
    """A float array of ``shape``, zero but for ``entries``, a dict keyed by
    index (rows of a 2-D array map to dicts of their own)."""
    out = np.zeros(shape)
    for i, value in entries.items():
        if isinstance(value, dict):
            out[i, list(value)] = list(value.values())
        else:
            out[i] = value
    return out


# The 161 nonzero coefficients, each written with repr, so every array
# holds the same bits as scipy's: A (stage weights, lower triangular),
# C (stage nodes), D (dense-output coefficients), E3, E5 (the two embedded
# error estimates).  B (8th-order weights) is row 12 of A, as in scipy:
# stage 12 is evaluated at the new solution.
A = _tableau((16, 16), {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386,
         4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
         5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998,
         4: 0.10726203044637328, 5: -0.015319437748624402,
         6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
         5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
         5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
         8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
         5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
         5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
         7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
         10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483,
         7: -0.2462390374708025, 8: -0.12419142326381637,
         9: 0.15329179827876568, 10: 0.00820105229563469,
         11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776,
         6: 0.053541988307438566, 7: -0.05492374857139099,
         10: -0.00010834732869724932, 11: 0.0003825710908356584,
         12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
         7: 4.06898981839711, 8: 0.3567271874552811,
         12: -0.0013990241651590145, 13: 2.9475147891527724,
         14: -9.15095847217987},
})
B = A[N_STAGES, :N_STAGES]
D = _tableau((4, 16), {
    0: {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
         7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
         10: 2.2404374302607883, 11: 0.6315787787694688,
         12: -0.08899033645133331, 13: 18.148505520854727,
         14: -9.194632392478356, 15: -4.436036387594894},
    1: {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
         7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
         10: -30.674084731089398, 11: -9.332130526430229,
         12: 15.697238121770845, 13: -31.139403219565178,
         14: -9.35292435884448, 15: 35.81684148639408},
    2: {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
         7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
         10: -1.0006050966910838, 11: 0.7777137798053443,
         12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
         15: 11.99229113618279},
    3: {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
         7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
         10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
         13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
})
C = _tableau((16,), {
    1: 0.05260015195876773, 2: 0.0789002279381516, 3: 0.1183503419072274,
    4: 0.2816496580927726, 5: 0.3333333333333333, 6: 0.25,
    7: 0.3076923076923077, 8: 0.6512820512820513, 9: 0.6,
    10: 0.8571428571428571, 11: 1.0, 12: 1.0, 13: 0.1, 14: 0.2,
    15: 0.7777777777777778
})
E3 = _tableau((13,), {
    0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
    7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
    10: 0.20136540080403034, 11: 0.02265179219836082
})
E5 = _tableau((13,), {
    0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
    7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
    10: 0.08192320648511571, 11: -0.022355307863886294
})


# ---------------------------------------------------------------------------
# generated stage code
# ---------------------------------------------------------------------------

@functools.cache
def _stepper(n):
    """(step, dense, interp) for an n-dimensional state, generated once."""
    namespace = {"sqrt": math.sqrt}
    exec(compile(_source(n), f"<dop853 n={n}>", "exec"), namespace)
    return namespace["step"], namespace["dense"], namespace["interp"]


def _source(n):
    """Python source of the three straight-line functions for dimension n.

    Stage s of component i is ``k{s}_{i}``; stage 0 is f(t, y), stage 12
    is f(t + h, y_new), stages 13-15 feed only the interpolant.
    """
    ns, ext, power = N_STAGES, N_STAGES_EXTENDED, INTERPOLATOR_POWER
    comps = range(n)

    def comb(row, i, upto):
        return " + ".join(f"{float(c)!r}*k{s}_{i}" for s, c in enumerate(row[:upto]) if c != 0)

    def unpack(name, stage):
        return f"    {', '.join(f'k{stage}_{i}' for i in comps)}, = {name}"

    def stage_call(s):
        ys = ", ".join(f"y_{i} + ({comb(A[s], i, s)})*h" for i in comps)
        return f"    K{s} = fun(t + {float(C[s])!r}*h, ({ys},), *args)"

    ys_all = ", ".join(f"y_{i}" for i in comps)
    yn_all = ", ".join(f"yn_{i}" for i in comps)

    step = ["def step(fun, args, t, y, f, h, rtol, atol):",
            f"    {ys_all}, = y", unpack("f", 0)]
    for s in range(1, ns):
        step += [stage_call(s), unpack(f"K{s}", s)]
    step += [f"    yn_{i} = y_{i} + h*({comb(B, i, ns)})" for i in comps]
    step += [f"    f_new = fun(t + h, ({yn_all},), *args)"]
    for i in comps:
        step += [f"    sc_{i} = atol + max(abs(y_{i}), abs(yn_{i}))*rtol",
                 f"    e5_{i} = ({comb(E5, i, ns)})/sc_{i}",
                 f"    e3_{i} = ({comb(E3, i, ns)})/sc_{i}"]
    step += [f"    n5 = {' + '.join(f'e5_{i}*e5_{i}' for i in comps)}",
             f"    n3 = {' + '.join(f'e3_{i}*e3_{i}' for i in comps)}",
             "    err = 0.0 if n5 == 0 and n3 == 0 else "
             f"abs(h)*n5/sqrt((n5 + 0.01*n3)*{n})",
             f"    return ({yn_all},), f_new, err, "
             f"(f, {', '.join(f'K{s}' for s in range(1, ns))}, f_new)"]

    dense = ["def dense(fun, args, t, h, y, y_new, stages):",
             f"    {ys_all}, = y", f"    {yn_all}, = y_new",
             f"    {', '.join(f'K{s}' for s in range(ns + 1))}, = stages"]
    dense += [unpack(f"K{s}", s) for s in range(ns + 1)]
    for s in range(ns + 1, ext):
        dense += [stage_call(s), unpack(f"K{s}", s)]
    for i in comps:
        dense += [f"    d_{i} = yn_{i} - y_{i}",
                  f"    F0_{i} = d_{i}",
                  f"    F1_{i} = h*k0_{i} - d_{i}",
                  f"    F2_{i} = 2*d_{i} - h*(k{ns}_{i} + k0_{i})"]
        dense += [f"    F{3 + r}_{i} = h*({comb(D[r], i, ext)})"
                  for r in range(power - 3)]
    flat = ", ".join(f"F{r}_{i}" for i in comps for r in range(power))
    dense += [f"    return ({flat},)"]

    # y_old + x (F0 + u (F1 + x (F2 + u (F3 + x (F4 + u (F5 + x F6)))))),
    # u = 1 - x: scipy's Horner order
    def horner(i):
        expr = f"F{power - 1}_{i}"
        for r in range(power - 2, -1, -1):
            expr = f"F{r}_{i} + {'x' if (power - 1 - r) % 2 else 'u'}*({expr})"
        return f"y_{i} + x*({expr})"

    interp = ["def interp(coeffs, y, x):",
              f"    {flat}, = coeffs", f"    {ys_all}, = y", "    u = 1.0 - x",
              f"    return ({', '.join(horner(i) for i in comps)},)"]
    return "\n".join(step + [""] + dense + [""] + interp) + "\n"
