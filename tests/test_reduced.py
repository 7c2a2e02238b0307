"""Integral equations: nonlinearity, Picard fixed point, equivalence, constants."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fluxramp import classical as cl
from fluxramp import reduced as rd
from fluxramp.errors import WORKING_SET_BUDGET, NoConvergence, NumericalFailure, ValidationError

import reference as ref

PHI = 0.5


def center_energy_s0(init, params):
    """s0 of |c|^2/2 - H = phi (s - s0) at the initial state, via guiding_series."""
    traj = cl.Trajectory(params=params, s=np.array([init.s]),
                         q=init.q[None, :], p=init.p[None, :])
    _, _, I1, H = cl.guiding_series(traj)
    return init.s - (I1[0] - H[0]) / params.phi


def test_f_exact_cancellation():
    for s in (0.5, 3.0, 40.0):
        assert rd.f_nonlinearity(s, 0.0, PHI, PHI) == pytest.approx(0.0, abs=1e-15)


def test_f_direct_substitution():
    for s in (0.2, 1.0, 7.0):
        expected = PHI * (1.0 - s / np.sqrt(1.0 + s * s))
        assert_allclose(rd.f_nonlinearity(s, 0.0, 0.0, PHI), expected, rtol=1e-14)


def test_f_large_s_expansion():
    # F = ((x2-phi)^2 - x1^2) / (2 phi s^2) + O(s^-3) for bounded x
    x1, x2 = 0.7, -0.3
    for s in (1e3, 1e4, 1e5):
        lead = ((x2 - PHI) ** 2 - x1 ** 2) / (2 * PHI * s * s)
        assert_allclose(rd.f_nonlinearity(s, x1, x2, PHI), lead, rtol=30.0 / s)


def test_f_denominator_guard():
    # x1 very negative with x2 = phi and tiny phi*s makes root + x1 collapse
    with pytest.raises(NumericalFailure, match="vanished"):
        rd.f_nonlinearity(1e-9, -1.0, PHI, PHI)
    with pytest.raises(ValidationError):
        rd.f_nonlinearity(-1.0, 0.0, 0.0, PHI)


def test_f_scalar_path_matches_array_path():
    # the ODE right-hand side calls F on plain floats, Picard on arrays; the
    # squares round as libm pow on floats and exactly on arrays, so the
    # paths agree to a few ulp of F's largest term, and mostly bit for bit
    rng = np.random.default_rng(7)
    s = np.exp(rng.uniform(-3.0, 8.0, 2000))
    x1, x2 = rng.normal(0.0, 3.0, (2, 2000))
    arr = rd.f_nonlinearity(s, x1, x2, PHI)
    one = np.array([rd.f_nonlinearity(*args, PHI)
                    for args in zip(s.tolist(), x1.tolist(), x2.tolist())])
    assert type(rd.f_nonlinearity(2.0, 0.1, 0.2, PHI)) is float
    root = np.sqrt(x1 * x1 + (x2 - PHI) ** 2 + (PHI * s) ** 2)
    scale = PHI + np.abs(x1) / s + PHI * PHI * s / (root + x1)
    assert np.all(np.abs(one - arr) <= 4.0 * np.finfo(float).eps * scale)
    assert np.mean(one == arr) >= 0.99
    for args, err, match in (((1e-9, -1.0, PHI), NumericalFailure, "vanished"),
                             ((-1.0, 0.0, 0.0), ValidationError, "s > 0"),
                             ((0.0, 0.0, 0.0), ValidationError, "s > 0")):
        with pytest.raises(err, match=match):
            rd.f_nonlinearity(*args, PHI)
        with pytest.raises(err, match=match):
            rd.f_nonlinearity(*(np.array([v]) for v in args), PHI)


def test_config_validation():
    with pytest.raises(ValidationError):
        rd.IntegralEqConfig(s_max=-5.0)
    with pytest.raises(ValidationError):
        rd.IntegralEqConfig(s_max=100.0, picard_tol=1e-4)
    with pytest.raises(ValidationError):
        rd.IntegralEqConfig(s_max=100.0, picard_tol=1e-13)
    with pytest.raises(ValidationError):
        rd.picard_solve(rd.IntegralEqConfig(s_max=50.0), PHI, 10.0)  # < 10 s_start


def test_config_quadrature_node_budget():
    # the residual grid has RESIDUAL_REFINE * ceil(s_max / PANEL_WIDTH) panels
    # of QUAD_NODES + RESIDUAL_EXTRA_ORDER nodes, BYTES_PER_NODE each; the
    # largest admitted s_max is the README figure, and the next double above
    # it, which needs one more panel, is refused before any work
    s_max = 299593.0
    nodes = rd.IntegralEqConfig(s_max=s_max).residual_nodes(0.0)
    assert rd.BYTES_PER_NODE * nodes <= WORKING_SET_BUDGET
    with pytest.raises(ValidationError, match="working-set budget"):
        rd.IntegralEqConfig(s_max=np.nextafter(s_max, np.inf))
    with pytest.raises(ValidationError, match="inf residual"):
        rd.IntegralEqConfig(s_max=1e308)


def test_forced_zero_f_gives_homogeneous(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=120.0, c1=1.0, c2=-2.0)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    assert sol.iterations == 1
    assert_allclose(sol.x1, ref.homogeneous(1, sol.grid, 1.0, -2.0), atol=0)
    assert_allclose(sol.x2, ref.homogeneous(2, sol.grid, 1.0, -2.0), atol=0)
    assert sol.tail_estimate == 0.0


def test_zero_constants_zero_solution(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=120.0, c1=0.0, c2=0.0)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    assert np.all(sol.x1 == 0.0) and np.all(sol.x2 == 0.0)


def test_picard_contraction_monotone():
    for c1, c2, phi in [(1.0, 0.0, 0.5), (0.5, -0.5, 0.5), (1.0, 1.0, 0.25),
                        (-0.8, 0.3, 1.0)]:
        cfg = rd.IntegralEqConfig(s_max=150.0, c1=c1, c2=c2, picard_tol=1e-10)
        sol = rd.picard_solve(cfg, phi, 10.0)
        assert np.all(np.diff(sol.deltas[2:]) < 0.0), (c1, c2, phi)


def test_picard_no_convergence_raises(monkeypatch):
    monkeypatch.setattr(rd, "MAX_ITERS", 2)
    cfg = rd.IntegralEqConfig(s_max=150.0, picard_tol=1e-10)
    with pytest.raises(NoConvergence) as err:
        rd.picard_solve(cfg, PHI, 10.0)
    assert err.value.iterations == 2


def test_picard_stops_at_first_non_finite_delta(monkeypatch):
    calls = []

    def nan_f(s, x1, x2, phi):
        calls.append(1)
        return np.full_like(s, np.nan)

    monkeypatch.setattr(rd, "f_nonlinearity", nan_f)
    with pytest.raises(NumericalFailure, match="non-finite"):
        rd.picard_solve(rd.IntegralEqConfig(s_max=150.0), PHI, 10.0)
    assert len(calls) == 1


def test_residual_bound():
    cfg = rd.IntegralEqConfig(s_max=150.0, picard_tol=1e-8)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    r1, r2 = rd.residual(sol)
    # criterion 05's fixture, held to 1e-9, well inside 10 * picard_tol: F
    # and the tails come from the solve's panel polynomials, so the residual
    # measures the solve, not an interpolant of it
    assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) <= 1e-9 < 10.0 * cfg.picard_tol


@pytest.fixture(scope="module")
def residual_fixtures():
    # criterion 05's fixture (one residual block at the default size) and an
    # s_max 3000 solve (twelve blocks)
    return [rd.picard_solve(rd.IntegralEqConfig(s_max=s_max), PHI, 10.0)
            for s_max in (150.0, 3000.0)]


@pytest.mark.parametrize("fixture, blocks", [(0, (1, 3, 10 ** 6)), (1, (37, 10 ** 6))],
                         ids=["criterion_05", "s_max_3000"])
def test_residual_blocks_bit_identical(residual_fixtures, monkeypatch, fixture, blocks):
    # every float operation keeps its order, so the block size moves no bit:
    # one panel of the solve per block, a few, and more than the solve has
    # (small blocks at s_max 3000 would take seconds)
    sol = residual_fixtures[fixture]
    expected = rd.residual(sol)
    for block in blocks:
        monkeypatch.setattr(rd, "RESIDUAL_BLOCK", block)
        for res, res_default in zip(rd.residual(sol), expected):
            assert np.array_equal(res, res_default)


def test_residual_traced_peak_per_node(residual_fixtures):
    # the residual grid is formed a block at a time: 16 bytes per residual
    # node at s_max 3000 (one block's arrays and the outputs), against 49
    # with whole-grid coefficient tables and 166 with every table at once
    sol = residual_fixtures[1]
    tracemalloc.start()
    try:
        rd.residual(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * sol.config.residual_nodes(sol.s_start)


def panel_quadrature():
    # panels of half the Picard width, on which the rule integrates cos to
    # about 2e-14 (2e-12 on the Picard width)
    return rd._PanelQuadrature(10.0, 14.0, 32, rd.QUAD_NODES)


def test_panel_interpolate_reproduces_polynomials():
    quad = panel_quadrature()
    rng = np.random.default_rng(3)
    # the ends, every interior panel edge, and random points
    points = np.concatenate([quad.edges, rng.uniform(10.0, 14.0, 200)])
    nodes = quad.nodes()
    values = rng.normal(size=nodes.size)
    assert_allclose(quad.interpolate(nodes, quad.project(values))[0], values,
                    rtol=0, atol=1e-13 * np.max(np.abs(values)))
    for degree in range(rd.QUAD_NODES):
        poly = np.polynomial.Polynomial(rng.normal(size=degree + 1), domain=[10.0, 14.0])
        exact = poly(points)
        assert_allclose(quad.interpolate(points, quad.project(poly(nodes)))[0], exact,
                        rtol=0, atol=1e-13 * np.max(np.abs(exact)))


def right_tails(quad, values):
    """int_s^b at each node s of ``quad`` of the panel polynomials of the node
    ``values``: the shared tail routine at refinement 1, as the sweep takes it."""
    rule = rd._Refinement(quad, 1, quad.order)
    return rule.tails(quad.project(values)[None], slice(0, quad.half.size), np.zeros(1))[0][0]


def test_panel_right_tails_at_nodes():
    quad = panel_quadrature()
    nodes = quad.nodes()
    assert_allclose(right_tails(quad, np.cos(nodes)),
                    np.sin(14.0) - np.sin(nodes), rtol=0, atol=1e-12)
    # exact, to rounding, for a polynomial of degree below QUAD_NODES
    poly = np.polynomial.Polynomial(np.arange(1.0, rd.QUAD_NODES + 1), domain=[10.0, 14.0])
    anti = poly.integ()
    assert_allclose(right_tails(quad, poly(nodes)),
                    anti(14.0) - anti(nodes),
                    rtol=0, atol=1e-13 * np.max(np.abs(anti(nodes))))


def test_refinement_one_tail_table_is_the_panel_antiderivatives():
    # at refinement 1 the solve nodes sit at their own xi, not at a
    # recomputed coordinate, so the sweep's tails keep every bit of the
    # per-panel formula (full - upto * half) + suffix
    quad = panel_quadrature()
    rule = rd._Refinement(quad, 1, rd.QUAD_NODES)
    anti = rd._antiderivatives(rd._legendre(rd.QUAD_NODES, quad.xi))
    assert len(rule.upto) == 1 and np.array_equal(rule.upto[0], anti)
    coef = quad.project(np.stack([np.cos(quad.nodes()), np.sin(quad.nodes())]))
    coef = coef.reshape(2, -1, rd.QUAD_NODES)
    full = coef[:, :, 0] * 2.0 * quad.half
    suffix = np.concatenate([np.cumsum(full[:, ::-1], axis=1)[:, ::-1][:, 1:],
                             np.zeros((2, 1))], axis=1)
    want = (full[:, :, None] - (coef @ anti) * quad.half[:, None]) + suffix[:, :, None]
    tails, _ = rule.tails(coef, slice(0, quad.half.size), np.zeros(2))
    assert np.array_equal(tails, want.reshape(2, -1))


def point_tails(quad, coef, points):
    """int_x^b of the panel polynomials ``coef`` at each point x, located by
    bisection on the edges, with P_l at its computed local coordinate."""
    k = np.searchsorted(quad.edges[1:-1], points, side="right")
    anti = rd._antiderivatives(rd._legendre(quad.order, (points - quad.mid[k]) / quad.half[k]))
    full = coef[:, 0] * 2.0 * quad.half
    suffix = np.concatenate([np.cumsum(full[::-1])[::-1][1:], [0.0]])
    return (full[k] - np.einsum("ml,lm->m", coef[k], anti) * quad.half[k]) + suffix[k]


@pytest.mark.parametrize("refine", [1, 2, 3])
def test_refinement_tables_match_point_path(monkeypatch, refine):
    # the fixed tables against locating every point: values at the fine
    # nodes and tails at the solve nodes, whole and in two blocks
    monkeypatch.setattr(rd, "RESIDUAL_REFINE", refine)
    solve = panel_quadrature()
    rule = rd._Refinement(solve, rd.RESIDUAL_REFINE, rd.QUAD_NODES + rd.RESIDUAL_EXTRA_ORDER)
    assert rule.fine.half.size == refine * solve.half.size
    # smooth data, as the solve's are: on noise the point path's computed
    # coordinates alone move the values by 1e-11
    coef = solve.project(np.sin(2.5 * solve.nodes()) + 0.1 * solve.nodes())
    expected = solve.interpolate(rule.fine.nodes(), coef)[0]
    assert_allclose((coef @ rule.interp).ravel(), expected,
                    rtol=0, atol=1e-13 * np.max(np.abs(expected)))
    tau = rule.fine.nodes()
    fine_coef = rule.fine.project(np.stack([np.cos(tau), np.cos(3.0 * tau) / tau]))
    fine_coef = fine_coef.reshape(2, -1, rule.fine.order)
    tails, carry = rule.tails(fine_coef, slice(0, 32), np.zeros(2))
    for got, c in zip(tails, fine_coef):
        want = point_tails(rule.fine, c, solve.nodes())
        assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    assert_allclose(tails[0], np.sin(14.0) - np.sin(solve.nodes()), rtol=0, atol=1e-13)
    # the carry left of the first panel is the whole integral; blocks walked
    # down from the right end with it reproduce every bit
    assert_allclose(carry[0], np.sin(14.0) - np.sin(10.0), rtol=0, atol=1e-13)
    right, mid = rule.tails(fine_coef[:, 20 * refine:], slice(20, 32), np.zeros(2))
    left, end = rule.tails(fine_coef[:, :20 * refine], slice(0, 20), mid)
    assert np.array_equal(np.concatenate([left, right], axis=1), tails)
    assert np.array_equal(end, carry)
    # and the residual on the refinement stays within criterion 05's bound
    sol = rd.picard_solve(rd.IntegralEqConfig(s_max=150.0), PHI, 10.0)
    assert max(np.max(np.abs(r)) for r in rd.residual(sol)) <= 1e-9


def test_kernel_wronskian_at_coincidence():
    s = np.linspace(1.0, 60.0, 41)
    # j = 1: the cylinder Wronskian gives exactly 2/(pi s); j = 2 vanishes
    assert_allclose(ref.kernel_factor(1, s, s), 2.0 / (np.pi * s), atol=1e-10, rtol=0)
    assert_allclose(ref.kernel_factor(2, s, s), 0.0, atol=1e-12)


def test_crosscheck_ode_forced_homogeneous(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=120.0, c1=1.0, c2=-0.5)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    dev = rd.crosscheck_ode(sol)
    assert dev < 1e-8


def test_crosscheck_ode_full():
    cfg = rd.IntegralEqConfig(s_max=150.0, picard_tol=1e-10)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    dev = rd.crosscheck_ode(sol, window=(10.0, 100.0))
    assert dev <= 1e-6


def test_crosscheck_against_classical_flow():
    # integrate the full flow, map through the derived change of variables,
    # match the homogeneous constants at the right end, and compare curves
    params = cl.FluxParams(PHI)
    init = cl.PhaseState(0.0, np.array([1.3, -0.4]), np.array([0.2, 0.9]))
    s0 = center_energy_s0(init, params)
    traj = cl.integrate(init, s0 + 157.0, params, tol=1e-12, samples=3000)
    t, x1, x2, s0_fit = rd.to_reduced(traj)
    assert_allclose(s0_fit, s0, atol=1e-9)
    i_end = int(np.argmin(np.abs(t - 155.0)))
    c1m, c2m = ref.match_constants_at(t[i_end], x1[i_end], x2[i_end])
    cfg = rd.IntegralEqConfig(s_max=float(t[i_end]), c1=c1m, c2=c2m, picard_tol=1e-10)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    dev = rd.crosscheck_ode(sol, trajectory=traj, window=(10.0, 100.0))
    assert dev <= 1e-6


def test_crosscheck_no_overlap(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=120.0)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    with pytest.raises(NumericalFailure, match="misses the solution grid"):
        rd.crosscheck_ode(sol, window=(500.0, 600.0))


def test_from_reduced_round_trip():
    # the inverse change of variables gauges s0 to 0: a short flow from the
    # state it builds maps back to the same reduced point at the first sample
    t0, x1, x2 = 12.0, 0.7, -1.1
    init = rd.from_reduced(t0, x1, x2, PHI)
    traj = cl.integrate(init, t0 + 5.0, cl.FluxParams(PHI), tol=1e-12, samples=101)
    _, y1, y2, s0 = rd.to_reduced(traj)
    assert abs(s0) <= 1e-9
    assert_allclose([y1[0], y2[0]], [x1, x2], atol=1e-10, rtol=0)


def test_crosscheck_rejects_trajectory_of_other_phi(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    sol = rd.picard_solve(rd.IntegralEqConfig(s_max=120.0), PHI, 10.0)
    init = rd.from_reduced(sol.grid[0], sol.x1[0], sol.x2[0], 2 * PHI)
    traj = cl.integrate(init, 20.0, cl.FluxParams(2 * PHI), tol=1e-10, samples=11)
    with pytest.raises(ValidationError, match="phi"):
        rd.crosscheck_ode(sol, trajectory=traj)


def test_mapped_trajectory_satisfies_reduced_ode():
    # dx2/ds = x1 for the mapped flow data, via spline differentiation
    from scipy.interpolate import CubicSpline
    params = cl.FluxParams(PHI)
    init = cl.PhaseState(0.0, np.array([1.0, 0.3]), np.array([-0.1, 0.8]))
    traj = cl.integrate(init, 80.0, params, tol=1e-12, samples=4001)
    t, x1, x2, _ = rd.to_reduced(traj)
    spline = CubicSpline(t, x2)
    inner = slice(100, -100)
    assert np.max(np.abs(spline(t[inner], 1) - x1[inner])) < 1e-5


def test_extract_constants_planted(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=1000.0, c1=1.0, c2=-2.0)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    ext = rd.extract_constants(sol)
    assert_allclose([ext.c1, ext.c2], [1.0, -2.0], atol=1e-8)


def test_extract_constants_degenerate(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=1000.0, c1=0.0, c2=0.0)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    with pytest.raises(NumericalFailure, match="degenerate amplitude"):
        rd.extract_constants(sol)


def test_extract_constants_needs_long_solution(monkeypatch):
    monkeypatch.setattr(rd, "f_nonlinearity", ref.zero_f)
    cfg = rd.IntegralEqConfig(s_max=150.0)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    with pytest.raises(ValidationError):
        rd.extract_constants(sol)


def test_perturbed_constant_sensitivity():
    # deviation between solutions grows about linearly in a c1 perturbation
    base = rd.picard_solve(rd.IntegralEqConfig(s_max=150.0, c1=1.0), PHI, 10.0)
    devs = []
    for eps in (1e-4, 2e-4):
        pert = rd.picard_solve(rd.IntegralEqConfig(s_max=150.0, c1=1.0 + eps),
                               PHI, 10.0)
        devs.append(np.max(np.abs(pert.x1 - base.x1)))
    assert 1.6 <= devs[1] / devs[0] <= 2.4


def test_a0_cross_module_agreement():
    params = cl.FluxParams(PHI)
    init = cl.PhaseState(0.0, np.array([1.3, -0.4]), np.array([0.2, 0.9]))
    s0 = center_energy_s0(init, params)
    traj = cl.integrate(init, s0 + 1005.0, params, tol=1e-11, samples=4000)
    t, x1, x2, _ = rd.to_reduced(traj)
    i_end = int(np.argmax(t >= 1000.0))
    c1m, c2m = ref.match_constants_at(t[i_end], x1[i_end], x2[i_end])
    cfg = rd.IntegralEqConfig(s_max=float(t[i_end]), c1=c1m, c2=c2m, picard_tol=1e-8)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    ext = rd.extract_constants(sol)

    samples = np.concatenate([np.linspace(0, 50, 401),
                              np.linspace(60, 7000, 200),
                              np.linspace(7500, 10000, 600)])
    far = cl.integrate(init, 10000.0, params, tol=1e-10, samples=samples)
    fwd = cl.asymptotics_forward(far)
    assert abs(ext.a0 - fwd.a0) <= 0.01 * fwd.a0
    assert abs(ext.a0_from_amplitude - fwd.a0) <= 0.01 * fwd.a0
