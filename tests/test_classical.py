"""Flow integration, guiding split, conserved quantity, asymptotics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxramp import classical as cl
from fluxramp.errors import WORKING_SET_BUDGET, BranchError, PunctureHit, ValidationError

PHI = cl.FluxParams(0.5)
# numerically indistinguishable from the homogeneous-field limit phi = 0,
# which the parameter type itself rejects
PHI_ZERO = cl.FluxParams(1e-300)


def state(s, q, p):
    return cl.PhaseState(s=s, q=np.asarray(q, float), p=np.asarray(p, float))


def trajectory(states, params=PHI):
    """The given phase states as the samples of one Trajectory."""
    return cl.Trajectory(params=params, s=np.array([st.s for st in states]),
                         q=np.array([st.q for st in states]),
                         p=np.array([st.p for st in states]))


def test_flux_params_rejects_nonpositive():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            cl.FluxParams(bad)


def test_vector_potential_examples():
    assert_allclose(cl.vector_potential(0.0, [1.0, 0.0], PHI), [0.0, 0.5], atol=0)
    assert_allclose(cl.vector_potential(3.3, [1.0, 0.0], PHI_ZERO), [0.0, 0.5], atol=0)
    # (s=2, q=(0,1), phi=0.5): (1/2 - 1) * (-1, 0) = (0.5, 0)
    assert_allclose(cl.vector_potential(2.0, [0.0, 1.0], PHI), [0.5, 0.0], atol=0)
    with pytest.raises(ValidationError):
        cl.vector_potential(1.0, [0.0, 0.0], PHI)


def test_hamiltonian_examples():
    st = state(1.7, [0.6, -1.1], [0.0, 0.0])
    a = cl.vector_potential(st.s, st.q, PHI)
    assert cl.hamiltonian(state(st.s, st.q, a), PHI) == 0.0
    assert_allclose(cl.hamiltonian(state(0.0, [1.0, 0.0], [0.0, 1.5]), PHI), 0.5,
                    rtol=1e-15)
    rng = np.random.default_rng(5)
    states = [state(rng.uniform(-2, 2), rng.uniform(0.3, 2, 2), rng.uniform(-2, 2, 2))
              for _ in range(25)]
    _, _, _, H = cl.guiding_series(trajectory(states))
    assert_allclose([cl.hamiltonian(st, PHI) for st in states], H, rtol=1e-13)


def test_flow_rhs_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        s = rng.uniform(-3, 3)
        q = rng.uniform(-2, 2, 2)
        if np.hypot(*q) < 0.3:
            q = q / np.hypot(*q) * 0.5
        p = rng.uniform(-2, 2, 2)
        vx, vy, dpx, dpy = cl._rhs_flat(s, (*q, *p), PHI.phi)
        dq, dp = np.array([vx, vy]), np.array([dpx, dpy])
        grad_q = np.zeros(2)
        grad_p = np.zeros(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            grad_q[k] = (cl.hamiltonian(state(s, q + e, p), PHI)
                         - cl.hamiltonian(state(s, q - e, p), PHI)) / (2 * h)
            grad_p[k] = (cl.hamiltonian(state(s, q, p + e), PHI)
                         - cl.hamiltonian(state(s, q, p - e), PHI)) / (2 * h)
        assert np.max(np.abs(dp + grad_q)) <= 1e-6 * (1 + np.max(np.abs(grad_q)))
        assert np.max(np.abs(dq - grad_p)) <= 1e-6 * (1 + np.max(np.abs(grad_p)))


def test_flow_rhs_velocity_component():
    st = state(0.7, [1.2, -0.3], [0.4, 0.8])
    dq = cl._rhs_flat(st.s, (*st.q, *st.p), PHI.phi)[:2]
    assert_allclose(dq, cl.velocity(st.s, st.q, st.p, PHI), rtol=1e-15)


def test_zero_flux_cyclotron_circle():
    # circle of radius |v| around c, H and |c| conserved, period 2 pi
    q = np.array([2.0, 0.0])
    v = np.array([0.0, 1.0])
    a = cl.vector_potential(0.0, q, PHI_ZERO)
    init = state(0.0, q, v + a)
    traj = cl.integrate(init, 4 * np.pi, PHI_ZERO, tol=1e-12, samples=257)
    c, vv, I1, H = cl.guiding_series(traj)
    assert np.max(np.abs(H - H[0])) < 1e-11
    radii = np.hypot(traj.q[:, 0] - c[0, 0], traj.q[:, 1] - c[0, 1])
    assert np.max(np.abs(radii - radii[0])) < 1e-10
    assert_allclose(traj.q[-1], traj.q[0], atol=1e-9)  # two full turns


def test_integrate_identity_and_validation():
    st = state(0.3, [1.0, 0.2], [0.1, 0.5])
    traj = cl.integrate(st, 0.3, PHI, tol=1e-10)
    assert len(traj) == 1
    assert_allclose(traj.q[0], st.q, atol=0)
    with pytest.raises(ValidationError):
        cl.integrate(st, 1.0, PHI, tol=1e-3)
    with pytest.raises(ValidationError):
        cl.integrate(st, 1.0, PHI, tol=1e-14)


@pytest.mark.filterwarnings("error")
def test_integrate_rejects_overflowing_initial_energy():
    # |v|^2 overflows: refused quietly, even on the empty span
    st = state(0.0, [1.0, 0.0], [1e200, 1e200])
    for s_end in (0.0, 1.0):
        with pytest.raises(ValidationError, match="overflows"):
            cl.integrate(st, s_end, PHI)


def test_integrate_sample_budget(monkeypatch):
    # the largest admitted sample count reaches the stepper; one more, or an
    # absurd count, is refused before its sample grid is built
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cl, "solve_ivp", reached)
    st = state(0.0, [1.0, 0.0], [0.0, 0.6])
    n_max = WORKING_SET_BUDGET // cl.BYTES_PER_SAMPLE
    with pytest.raises(Reached):
        cl.integrate(st, 5.0, PHI, samples=n_max)
    for n in (n_max + 1, 10 ** 40):
        with pytest.raises(ValidationError, match="working-set budget"):
            cl.integrate(st, 5.0, PHI, samples=n)


def test_puncture_event_reported(monkeypatch):
    # at zero flux the orbit is the circle through the origin when |c| = |v|;
    # a widened guard makes the measure-zero crossing resolvable
    q = np.array([2.0, 0.0])
    v = np.array([0.0, -1.0])  # v_perp = (1, 0), c = (1, 0), |c| = |v| = 1
    init = state(0.0, q, v + cl.vector_potential(0.0, q, PHI_ZERO))
    monkeypatch.setattr(cl, "R_GUARD", 0.05)
    with pytest.raises(PunctureHit) as err:
        cl.integrate(init, 8.0, PHI_ZERO, tol=1e-12, samples=65)
    hit = err.value
    assert hit.trajectory is not None
    # |q(s)| = 2 |sin(s/2)| on this orbit; first crossing of 0.05 near pi
    assert_allclose(hit.s_hit, np.pi - 0.05, atol=1e-2)
    assert np.all(np.hypot(hit.trajectory.q[:, 0], hit.trajectory.q[:, 1]) > 0.049)


def test_guiding_center_examples():
    # q = (1, 0), v = (0, 1): c = q - v_perp = (2, 0), I1 = 2, H = 1/2;
    # zero velocity: c = q, H = 0
    q = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    moving = state(0.4, q, v + cl.vector_potential(0.4, q, PHI))
    resting = state(1.0, q, cl.vector_potential(1.0, q, PHI))
    c, _, I1, H = cl.guiding_series(trajectory([moving, resting]))
    assert_allclose(c[0], [2.0, 0.0], atol=1e-14)
    assert_allclose([I1[0], H[0]], [2.0, 0.5], rtol=1e-14)
    assert_allclose(c[1], q, atol=1e-15)
    assert H[1] == 0.0


def test_guiding_roundtrip_random():
    rng = np.random.default_rng(123)
    states = []
    for _ in range(1000):
        st = state(rng.uniform(-5, 5), rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2))
        if np.hypot(*st.q) >= 1e-6:
            states.append(st)
    traj = trajectory(states)
    c, v, _, _ = cl.guiding_series(traj)
    vperp = np.stack([-v[:, 1], v[:, 0]], axis=1)
    scale = 1 + np.max(np.abs(traj.q), axis=1)
    assert np.all(np.max(np.abs(c + vperp - traj.q), axis=1) <= 1e-12 * scale)


def test_motion_constant_equals_h_minus_phi_arg():
    st = state(0.9, [0.8, 0.7], [-0.2, 0.4])
    traj = trajectory([st])
    _, _, _, H = cl.guiding_series(traj)
    K = cl.motion_constant_series(traj)
    assert_allclose(K[0], H[0] - PHI.phi * np.arctan2(st.q[1], st.q[0]), rtol=1e-13)


def test_motion_constant_zero_flux_is_energy():
    traj = trajectory([state(0.0, [1.0, 0.4], [0.3, 0.6])], PHI_ZERO)
    _, _, _, H = cl.guiding_series(traj)
    assert_allclose(cl.motion_constant_series(traj), H, rtol=0, atol=1e-15)


def test_motion_constant_branch_continuation_and_error():
    st1 = state(0.0, [1.0, 0.0], [0.0, 0.6])

    def rotated(angle):
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        return state(0.0, rot @ st1.q, rot @ st1.p)

    # rotate position by 0.5 rad: unwrap continues fine
    branch = cl.unwrapped_arg(trajectory([st1, rotated(0.5)]))
    assert_allclose(branch[1] - branch[0], 0.5, atol=1e-12)
    # a near-pi jump is ambiguous and must be refused on the CLI's K path
    with pytest.raises(BranchError):
        cl.motion_constant_series(trajectory([st1, rotated(np.pi)]))


def test_k_conservation_along_trajectory():
    init = state(0.0, [1.3, -0.4], [0.2, 0.9])
    traj = cl.integrate(init, 100.0, PHI, tol=1e-12, samples=1001)
    K = cl.motion_constant_series(traj)
    assert np.max(np.abs(K - K[0])) <= 1e-8 * (1 + abs(K[0]))


def test_center_energy_fit_recovers_planted_constant():
    # synthetic data satisfying the law exactly with s0 = 3: plant I2 = 1,
    # I1 = I2 + phi (s - 3), build q = c + v_perp and p = v + a from them
    s = np.linspace(4.0, 24.0, 64)
    i1 = 1.0 + PHI.phi * (s - 3.0)
    c = np.sqrt(2 * i1)[:, None] * np.stack([np.cos(0.1 * s), np.sin(0.1 * s)], axis=1)
    v = np.sqrt(2.0) * np.stack([np.cos(s), np.sin(s)], axis=1)
    q = c + np.stack([-v[:, 1], v[:, 0]], axis=1)
    g = 0.5 - PHI.phi * s / np.sum(q * q, axis=1)
    p = v + g[:, None] * np.stack([-q[:, 1], q[:, 0]], axis=1)
    traj = cl.Trajectory(params=PHI, s=s, q=q, p=p)
    fit = cl.center_energy_fit(traj)
    assert_allclose(fit.s0, 3.0, atol=1e-10)
    assert_allclose(fit.slope, PHI.phi, rtol=1e-12)
    assert fit.max_residual < 1e-12
    with pytest.raises(ValidationError):
        cl.center_energy_fit(cl.Trajectory(params=PHI, s=s[:5], q=q[:5], p=p[:5]))


def test_center_energy_relation_on_integrated_trajectory():
    init = state(0.0, [1.3, -0.4], [0.2, 0.9])
    traj = cl.integrate(init, 50.0, PHI, tol=1e-12, samples=501)
    fit = cl.center_energy_fit(traj)
    assert abs(fit.slope - PHI.phi) <= 1e-8 * PHI.phi
    assert fit.max_residual <= 1e-9
    assert_allclose(fit.s0, -2.5, atol=1e-9)


def test_asymptotics_preconditions():
    init = state(0.0, [1.0, 0.0], [0.0, 0.6])
    traj = cl.integrate(init, 10.0, PHI, tol=1e-10)
    with pytest.raises(ValidationError):
        cl.asymptotics_forward(traj)
    with pytest.raises(ValidationError):
        cl.asymptotics_backward(traj)
