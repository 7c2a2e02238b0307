"""The package's DOP853 stepper against scipy's solve_ivp as the oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp as scipy_solve_ivp

from fluxramp import classical as cl
from fluxramp import ode
from fluxramp import reduced as rd
from fluxramp.errors import NumericalFailure, PunctureHit, ValidationError

Q0, P0 = (1.3, -0.4), (0.2, 0.9)


def both(fun, span, y0, tol, t_eval, args=(), event=None):
    """(ours, scipy's) on one problem with the classical tolerance pair."""
    ours = ode.solve_ivp(fun, span, y0, tol, tol * 1e-2, t_eval, args=args, event=event)
    ref = scipy_solve_ivp(fun, span, np.asarray(y0, dtype=float), method="DOP853",
                          rtol=tol, atol=tol * 1e-2, t_eval=t_eval, args=args or None,
                          events=event)
    return ours, ref


def test_tight_fixture_matches_scipy():
    t_eval = np.linspace(0.0, 100.0, 1001)
    ours, ref = both(cl._rhs_flat, (0.0, 100.0), (*Q0, *P0), 1e-12, t_eval, args=(0.5,))
    assert ours.status == ref.status == 0
    assert np.array_equal(ours.t, ref.t)
    assert ours.y.T.shape == ref.y.shape == (4, 1001)
    assert np.max(np.abs(ours.y.T - ref.y)) <= 1e-11
    assert abs(ours.nfev - ref.nfev) <= 0.01 * ref.nfev
    assert ours.steps > 0 and ours.rejected_steps >= 0


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.5, 2.0), angle=st.floats(-np.pi, np.pi),
       p=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       phi=st.floats(0.1, 1.0), s0=st.floats(-10.0, 10.0),
       span=st.floats(1.0, 50.0), backward=st.booleans(),
       log_tol=st.floats(-12.0, -8.0),
       samples=st.one_of(st.integers(2, 300),
                         st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)))
def test_random_flows_match_scipy(r, angle, p, phi, s0, span, backward, log_tol, samples):
    s_end = s0 - span if backward else s0 + span
    if isinstance(samples, int):
        t_eval = np.linspace(s0, s_end, samples)
    else:  # non-uniform, strictly monotone in the direction of integration:
        # distinct samples can map to one time, so duplicates go after the map
        t_eval = np.unique(s0 + (s_end - s0) * np.asarray(samples))
        t_eval = t_eval[::-1] if backward else t_eval
    tol = 10.0 ** log_tol
    y0 = (r * np.cos(angle), r * np.sin(angle), *p)
    ours, ref = both(cl._rhs_flat, (s0, s_end), y0, tol, t_eval, args=(phi,))
    assert ours.status == ref.status == 0
    assert np.array_equal(ours.t, ref.t)
    # both take the same steps, so they differ by rounding unless a step
    # sits on the accept/reject boundary; then by at most the local
    # error the controller admits, far below 10 tol (1 + max|y|)
    bound = 10.0 * tol * (1.0 + np.max(np.abs(ref.y)))
    assert np.max(np.abs(ours.y.T - ref.y)) <= bound


def test_puncture_time_matches_scipy(monkeypatch):
    # the zero-flux orbit of test_puncture_event_reported: a circle through
    # the origin, stopped by the widened guard |q| = 0.05
    phi = 1e-300
    q = np.array([2.0, 0.0])
    p = np.array([0.0, -1.0]) + cl.vector_potential(0.0, q, cl.FluxParams(phi))

    def guard(s, y, *_):
        return y[0] * y[0] + y[1] * y[1] - 0.05 * 0.05

    guard.terminal = True
    ours, ref = both(cl._rhs_flat, (0.0, 8.0), (*q, *p), 1e-12,
                     np.linspace(0.0, 8.0, 65), args=(phi,), event=guard)
    assert ours.status == ref.status == 1
    assert abs(ours.t_event - ref.t_events[0][0]) <= 1e-12
    assert np.array_equal(ours.t, ref.t)
    monkeypatch.setattr(cl, "R_GUARD", 0.05)
    with pytest.raises(PunctureHit) as err:
        cl.integrate(cl.PhaseState(0.0, q, p), 8.0, cl.FluxParams(phi), tol=1e-12,
                     samples=65)
    assert err.value.s_hit == ours.t_event


def test_reduced_ode_matches_scipy():
    # the crosscheck fixture: Picard start values at s = 10, compared on its grid
    sol = rd.picard_solve(rd.IntegralEqConfig(s_max=150.0, picard_tol=1e-10), 0.5, 10.0)
    span, x0 = (sol.grid[0], sol.grid[-1]), (sol.x1[0], sol.x2[0])
    t, x1, x2 = rd.integrate_ode(0.5, span, x0, sol.grid)
    ref = scipy_solve_ivp(rd.ode_rhs, span, np.asarray(x0), method="DOP853", rtol=1e-12,
                          atol=1e-14, t_eval=sol.grid, args=(0.5,))
    assert np.array_equal(t, ref.t)
    assert_allclose(np.stack([x1, x2]), ref.y, rtol=0, atol=1e-11)


def test_samples_are_rows_of_the_state():
    # y is (n, dim), one row per sample reached, also when the terminal
    # event stops the run before the last sample time
    t_eval = np.linspace(0.0, 8.0, 65)
    flow = ode.solve_ivp(cl._rhs_flat, (0.0, 8.0), (*Q0, *P0), 1e-10, 1e-12, t_eval,
                         args=(0.5,))
    assert flow.status == 0 and flow.t_event is None
    assert flow.y.shape == (65, 4) and np.array_equal(flow.t, t_eval)
    assert np.array_equal(flow.y[0], (*Q0, *P0))
    reduced = ode.solve_ivp(rd.ode_rhs, (10.0, 20.0), (1.0, 0.0), rd.ODE_TOL,
                            rd.ODE_TOL * 1e-2, np.linspace(10.0, 20.0, 11), args=(0.5,))
    assert reduced.y.shape == (11, 2)

    def guard(s, y):  # the circle of test_puncture_time_matches_scipy
        return y[0] * y[0] + y[1] * y[1] - 0.05 * 0.05

    q = np.array([2.0, 0.0])
    p = np.array([0.0, -1.0]) + cl.vector_potential(0.0, q, cl.FluxParams(1e-300))
    stopped = ode.solve_ivp(cl._rhs_flat, (0.0, 8.0), (*q, *p), 1e-12, 1e-14, t_eval,
                            args=(1e-300,), event=guard)
    assert stopped.status == 1 and type(stopped.t_event) is float
    n = stopped.t.size
    assert 0 < n < 65 and stopped.y.shape == (n, 4)
    assert stopped.t[-1] <= stopped.t_event < t_eval[n]


@pytest.mark.parametrize("n", [5001, 20001])
def test_samples_hold_no_python_object(n):
    # each sample is written in place as one row of an (n, 4) float array:
    # 32 bytes per sample, against about 280 when every sample was staged
    # as a Python float and a tuple of four.  The span is short because
    # tracemalloc costs about 3 ms per step; the bound is per sample.
    t_eval = np.linspace(0.0, 10.0, n)
    ode._stepper(4)  # the generated stage code is compiled once per dimension
    tracemalloc.start()
    try:
        sol = ode.solve_ivp(cl._rhs_flat, (0.0, 10.0), (*Q0, *P0), 1e-10, 1e-12,
                            t_eval, args=(0.5,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == 0 and sol.y.shape == (n, 4)
    assert peak <= 64 * n


def test_nan_rhs_fails_cleanly(monkeypatch):
    nan4 = (np.nan,) * 4

    def poisoned(s, y, phi):  # finite up to s = 1, NaN beyond
        return nan4 if s > 1.0 else real(s, y, phi)

    real = cl._rhs_flat
    monkeypatch.setattr(cl, "_rhs_flat", poisoned)
    # one failure, one line, for both studies that integrate
    line = "integrator failed: Required step size is below 10 ulp of t."
    with pytest.raises(NumericalFailure) as err:
        cl.integrate(cl.PhaseState(0.0, np.array(Q0), np.array(P0)), 5.0, cl.FluxParams(0.5))
    assert str(err.value) == line
    monkeypatch.setattr(rd, "ode_rhs", lambda s, x, phi: (np.nan, np.nan))
    with pytest.raises(NumericalFailure) as err:
        rd.integrate_ode(0.5, (10.0, 20.0), (1.0, 0.0), [10.0, 20.0])
    assert str(err.value) == line


def test_overflowing_rhs_in_step_guess_fails_cleanly():
    # the scaled RHS norm of the step guess overflows to inf, so the guess
    # h0 = 0.01 d0/d1 is zero: the run fails instead of dividing by it,
    # before a second call of the RHS
    calls = []

    def huge(t, y):
        calls.append(t)
        return (1e200, 1e200)

    with pytest.raises(NumericalFailure, match="below 10 ulp of t"):
        ode.solve_ivp(huge, (0.0, 1.0), (1.0, 1.0), 1e-10, 1e-12, [0.0, 1.0])
    assert calls == [0.0]


@pytest.mark.parametrize("samples", [[], [0.0, np.nan, 2.0], [0.0, 2.0, 1.0],
                                     [0.0, 1.0, 1.0], [0.0, 6.0]])
def test_bad_sample_arrays_rejected(samples):
    with pytest.raises(ValidationError):
        cl.integrate(cl.PhaseState(0.0, np.array(Q0), np.array(P0)), 5.0,
                     cl.FluxParams(0.5), samples=samples)


def test_frozen_tableau_equals_scipy_bitwise():
    from scipy.integrate._ivp import dop853_coefficients as tableau
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(ode, name), getattr(tableau, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        ours, theirs = getattr(ode, name), getattr(tableau, name)
        assert type(ours) is int and ours == theirs, name
