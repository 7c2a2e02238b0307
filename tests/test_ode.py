"""The package's DOP853 stepper against scipy's solve_ivp as the oracle."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp as scipy_solve_ivp

import fluxramp
from fluxramp import classical as cl
from fluxramp import ode
from fluxramp import reduced as rd
from fluxramp.errors import NoConvergence, PunctureHit, StepFailure, ValidationError

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
    assert ours.y.shape == ref.y.shape == (4, 1001)
    assert np.max(np.abs(ours.y - ref.y)) <= 1e-11
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
    else:  # non-uniform, strictly monotone in the direction of integration
        t_eval = s0 + (s_end - s0) * np.unique(samples)
    tol = 10.0 ** log_tol
    y0 = (r * np.cos(angle), r * np.sin(angle), *p)
    ours, ref = both(cl._rhs_flat, (s0, s_end), y0, tol, t_eval, args=(phi,))
    assert ours.status == ref.status == 0
    assert np.array_equal(ours.t, ref.t)
    # both take the same steps, so they differ by rounding unless a step
    # sits on the accept/reject boundary; then by at most the local
    # error the controller admits, far below 10 tol (1 + max|y|)
    bound = 10.0 * tol * (1.0 + np.max(np.abs(ref.y)))
    assert np.max(np.abs(ours.y - ref.y)) <= bound


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
    assert abs(ours.t_events[0][0] - ref.t_events[0][0]) <= 1e-12
    assert np.array_equal(ours.t, ref.t)
    monkeypatch.setattr(cl, "R_GUARD", 0.05)
    with pytest.raises(PunctureHit) as err:
        cl.integrate(cl.PhaseState(0.0, q, p), 8.0, cl.FluxParams(phi), tol=1e-12,
                     samples=65)
    assert err.value.s_hit == ours.t_events[0][0]


def test_reduced_ode_matches_scipy():
    # the crosscheck fixture: Picard start values at s = 10, compared on its grid
    sol = rd.picard_solve(rd.IntegralEqConfig(s_max=150.0, picard_tol=1e-10), 0.5, 10.0)
    span, x0 = (sol.grid[0], sol.grid[-1]), (sol.x1[0], sol.x2[0])
    t, x1, x2 = rd.integrate_ode(0.5, span, x0, sol.grid)
    ref = scipy_solve_ivp(rd.ode_rhs, span, np.asarray(x0), method="DOP853", rtol=1e-12,
                          atol=1e-14, t_eval=sol.grid, args=(0.5,))
    assert np.array_equal(t, ref.t)
    assert_allclose(np.stack([x1, x2]), ref.y, rtol=0, atol=1e-11)


def test_nan_rhs_fails_cleanly(monkeypatch):
    nan4 = (np.nan,) * 4

    def poisoned(s, y, phi):  # finite up to s = 1, NaN beyond
        return nan4 if s > 1.0 else real(s, y, phi)

    real = cl._rhs_flat
    monkeypatch.setattr(cl, "_rhs_flat", poisoned)
    with pytest.raises(StepFailure):
        cl.integrate(cl.PhaseState(0.0, np.array(Q0), np.array(P0)), 5.0, cl.FluxParams(0.5))
    monkeypatch.setattr(rd, "ode_rhs", lambda s, x, phi: (np.nan, np.nan))
    with pytest.raises(NoConvergence):
        rd.integrate_ode(0.5, (10.0, 20.0), (1.0, 0.0), [10.0, 20.0])


def test_overflowing_rhs_in_step_guess_fails_cleanly():
    # the scaled RHS norm of the step guess overflows to inf, so the guess
    # h0 = 0.01 d0/d1 is zero: the run fails instead of dividing by it
    def huge(t, y):
        return (1e200, 1e200)

    sol = ode.solve_ivp(huge, (0.0, 1.0), (1.0, 1.0), 1e-10, 1e-12, [0.0, 1.0])
    assert sol.status == -1
    assert sol.t.size == 0 and sol.steps == 0 and sol.nfev == 1


@pytest.mark.parametrize("samples", [[], [0.0, np.nan, 2.0], [0.0, 2.0, 1.0],
                                     [0.0, 1.0, 1.0], [0.0, 6.0]])
def test_bad_sample_arrays_rejected(samples):
    with pytest.raises(ValidationError):
        cl.integrate(cl.PhaseState(0.0, np.array(Q0), np.array(P0)), 5.0,
                     cl.FluxParams(0.5), samples=samples)


# argvs whose runs need no scipy module (a classical run without a puncture
# event, an adiabatic sweep, the closed-form spectral checks)
SCIPY_FREE_RUNS = {
    "classical": ["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
                  "--s-end", "20", "--tol", "1e-12", "--samples", "65"],
    "adiabatic": ["adiabatic", "--levels", "4", "--epsilons", "0.2,0.1",
                  "--s-end", "0.2", "--samples", "3"],
    "coupling": ["spectral", "--s", "0,1.5", "--levels", "16", "--check", "coupling"],
    "gamma": ["spectral", "--s", "0,1.5", "--levels", "16", "--check", "gamma"],
}


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # no module imports scipy at module level, and these runs call nothing
    # that does; one fresh interpreter lists the scipy modules loaded after
    # the import and after each run
    src = os.path.dirname(os.path.dirname(fluxramp.__file__))
    probe = f"""
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import fluxramp.cli
seen = {{"import": loaded()}}
for name, argv in {SCIPY_FREE_RUNS!r}.items():
    code = fluxramp.cli.main(argv + ["--out", {str(tmp_path)!r} + "/" + name])
    seen[name] = [code] + loaded()
print(json.dumps(seen))
"""
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    seen = json.loads(out.stdout)
    assert seen == {"import": [], **{name: [0] for name in SCIPY_FREE_RUNS}}


def test_frozen_tableau_equals_scipy_bitwise():
    from scipy.integrate._ivp import dop853_coefficients as tableau
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(ode, name), getattr(tableau, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        ours, theirs = getattr(ode, name), getattr(tableau, name)
        assert type(ours) is int and ours == theirs, name
