"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Criterion 8 is split: the structural clauses (8a) pass; the
norm-monotonicity clause (8b) is implemented exactly as stated and is an
expected failure, because the finite-truncation norms of the coupling
operator verifiably DECREASE in s (every entry carries the suppression
((m+1)/(n+1))^(s/2) < 1) while the truncation limit equals pi/2 for every
s; an increasing majorant exists, but the measured norms are not
themselves nondecreasing.  See the README's "known deviations" section
and docs/derivations.md (section 5) for the analysis.
"""

import time

import numpy as np
import pytest

from fluxramp import adiabatic as ad
from fluxramp import classical as cl
from fluxramp import cli
from fluxramp import reduced as rd
from fluxramp import spectral as sp

import reference as ref

PHI = 0.5
PARAMS = cl.FluxParams(PHI)
INITIAL_CONDITIONS = [
    ([1.3, -0.4], [0.2, 0.9]),
    ([0.7, 1.1], [-0.5, 0.3]),
    ([-1.0, 0.6], [0.4, -0.8]),
]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def short_trajectories():
    out = []
    for q0, p0 in INITIAL_CONDITIONS:
        t0 = time.time()
        traj = cl.integrate(cl.PhaseState(0.0, np.array(q0), np.array(p0)),
                            100.0, PARAMS, tol=1e-12, samples=1001)
        out.append((traj, time.time() - t0))
    return out


@pytest.fixture(scope="module")
def forward_trajectory():
    samples = np.concatenate([np.linspace(0.0, 50.0, 401),
                              np.linspace(60.0, 7000.0, 200),
                              np.linspace(7500.0, 10000.0, 600)])
    t0 = time.time()
    traj = cl.integrate(cl.PhaseState(0.0, np.array([1.3, -0.4]), np.array([0.2, 0.9])),
                        10000.0, PARAMS, tol=1e-10, samples=samples)
    return traj, time.time() - t0


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    res = ad.run_sweep(epsilons=(0.2, 0.1, 0.05, 0.025), s_end=2.0, N=64,
                       n_samples=41)
    return res, time.time() - t0


def test_criterion_01_k_conservation(short_trajectories):
    worst = 0.0
    runtime = 0.0
    for traj, dt in short_trajectories:
        K = cl.motion_constant_series(traj)
        drift = np.max(np.abs(K - K[0])) / (1.0 + abs(K[0]))
        worst = max(worst, drift)
        runtime = max(runtime, dt)
    ok = worst <= 1e-8 and runtime <= 10.0
    assert report(1, ok, f"K drift {worst:.2e} (<= 1e-8), "
                         f"slowest trajectory {runtime:.2f}s")


def test_criterion_02_center_energy_law(short_trajectories):
    worst_slope, worst_resid = 0.0, 0.0
    for traj, _ in short_trajectories:
        fit = cl.center_energy_fit(traj)
        worst_slope = max(worst_slope, abs(fit.slope - PHI) / PHI)
        worst_resid = max(worst_resid, fit.max_residual)
    ok = worst_slope <= 1e-8 and worst_resid <= 1e-8
    assert report(2, ok, f"slope rel err {worst_slope:.2e} (<= 1e-8), "
                         f"residual {worst_resid:.2e} (<= 1e-8)")


def test_criterion_03_forward_asymptotics(forward_trajectory):
    traj, dt = forward_trajectory
    fwd = cl.asymptotics_forward(traj)
    _, _, _, H = cl.guiding_series(traj)
    ratio = fwd.q_over_sqrt_s / np.sqrt(2.0 * PHI)
    h_dev = abs(H[-1] - fwd.H_limit) / fwd.H_limit
    ok = (0.98 <= ratio <= 1.02 and h_dev <= 0.02
          and fwd.angle_residual <= 0.05 and dt <= 60.0)
    assert report(3, ok, f"|q|/sqrt(s) ratio {ratio:.4f} (in 1 +/- 0.02), "
                         f"H vs limit {h_dev:.4f} (<= 0.02), angle residual "
                         f"{fwd.angle_residual:.2e} rad (<= 0.05), {dt:.1f}s")


def test_criterion_04_backward_asymptotics():
    traj = cl.integrate(cl.PhaseState(0.0, np.array([1.3, -0.4]), np.array([0.2, 0.9])),
                        -1000.0, PARAMS, tol=1e-10, samples=801)
    bwd = cl.asymptotics_backward(traj)
    r1 = bwd.H_over_abs_s / PHI
    r2 = bwd.q_over_sqrt_abs_s / np.sqrt(2.0 * PHI)
    ok = 0.98 <= r1 <= 1.02 and 0.95 <= r2 <= 1.05
    assert report(4, ok, f"H/|s| ratio {r1:.4f} (in 1 +/- 0.02), "
                         f"|q|/sqrt|s| ratio {r2:.4f} (in 1 +/- 0.05)")


def test_criterion_05_integral_equation_equivalence():
    cfg = rd.IntegralEqConfig(s_max=150.0, c1=1.0, c2=0.0, picard_tol=1e-8)
    sol = rd.picard_solve(cfg, PHI, 10.0)
    r1, r2 = rd.residual(sol)
    resid = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
    dev = rd.crosscheck_ode(sol, window=(10.0, 100.0))
    ok = resid <= 10.0 * cfg.picard_tol and dev <= 1e-6
    assert report(5, ok, f"picard residual {resid:.2e} (<= {10*cfg.picard_tol:.0e}), "
                         f"ODE deviation {dev:.2e} (<= 1e-6), "
                         f"{sol.iterations} iterations")


def test_criterion_06_spectral_oracle_agreement():
    worst_ev, worst_ov, slowest = 0.0, 1.0, 0.0
    for s in (0.0, 0.5, 1.0, 2.0):
        # the path of `spectral --check oracle`: the 32 compared levels of the
        # 64-level family, solved on that family's grid at the default cells
        t0 = time.time()
        fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=64))
        fd = sp.fd_spectrum(sp.SectorParams(s=s, N=32), r_max=sp.fd_r_max(s, 64))
        worst_ev = max(worst_ev, float(np.max(np.abs(fd.energies - fam.energies[:32]))))
        worst_ov = min(worst_ov, float(np.min(fd.overlaps_with_analytic(fam))))
        slowest = max(slowest, time.time() - t0)
    ok = worst_ev <= 1e-6 and worst_ov >= 1.0 - 1e-6 and slowest <= 30.0
    assert report(6, ok, f"eigenvalue err {worst_ev:.2e} (<= 1e-6), "
                         f"overlap 1-{1-worst_ov:.2e} (>= 1-1e-6), "
                         f"slowest s-value {slowest:.1f}s")


def test_criterion_07_kernel_bound():
    details = []
    ok = True
    for s in (0.0, 0.5, 1.0, 2.0, 5.0):
        res = sp.kernel_bound_check(s)
        ok = ok and res.refined_norm <= res.bound + 1e-6
        details.append(f"s={s:g}: {res.refined_norm:.6f} <= {res.bound:.6f}")
    assert report(7, ok, "; ".join(details))


def test_criterion_08a_coupling_structure():
    worst_h, worst_d = 0.0, 0.0
    env_lo, env_hi = np.inf, 0.0
    for s in (0.5, 1.0, 2.0):
        pi = sp.coupling_matrix(sp.analytic_spectrum(sp.SectorParams(s=s, N=64)))
        worst_h = max(worst_h, float(np.linalg.norm(pi - pi.conj().T, 2)))
        worst_d = max(worst_d, float(np.max(np.abs(np.diag(pi)))))
        for d in range(1, 33):
            m = np.arange(0, 64 - d)
            ratios = np.abs(pi[m, m + d]) * d * ((m + d + 1) / (m + 1)) ** (s / 2)
            env_lo, env_hi = min(env_lo, ratios.min()), max(env_hi, ratios.max())
    ok = worst_h <= 1e-10 and worst_d <= 1e-10 and env_lo >= 0.1 and env_hi <= 10.0
    assert report("8a", ok, f"hermiticity {worst_h:.1e}, diagonal {worst_d:.1e} "
                            f"(<= 1e-10), envelope in [{env_lo:.3f}, {env_hi:.3f}] "
                            f"(within [0.1, 10])")


@pytest.mark.xfail(strict=True,
                   reason="truncated coupling norms decrease in s: the envelope "
                          "((m+1)/(n+1))^(s/2) < 1 suppresses every entry while "
                          "the truncation limit is pi/2 for all s, so the stated "
                          "nondecreasing check contradicts the verified operator")
def test_criterion_08b_coupling_norm_monotonicity():
    values = []
    for s in (0.0, 0.5, 1.0, 2.0, 4.0):
        est = sp.coupling_norm(sp.pi_matrix(s, 64), [16, 32, 64])
        values.append(ref.geometric_extrapolation(est.norms))
    ok = all(b >= a for a, b in zip(values, values[1:]))
    report("8b", ok, "extrapolated norms " + ", ".join(f"{v:.4f}" for v in values)
           + " (stated check: nondecreasing in s; expected failure, see README)")
    assert ok


def test_criterion_09_gamma_construction():
    worst_resid = 0.0
    bound_curve = []
    for s in np.linspace(0.0, 5.0, 11):
        fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=64))
        pi = sp.coupling_matrix(fam)
        gam = sp.gamma_potential(pi, fam)
        worst_resid = max(worst_resid, sp.commutator_residual(gam, pi, fam))
        h = 1e-4
        gp = sp.gamma_potential(sp.coupling_matrix(
            sp.analytic_spectrum(sp.SectorParams(s=s + h, N=64))), fam)
        bound_curve.append(np.linalg.norm(gam, 2) + np.linalg.norm(gp - gam, 2) / h)
    recorded = float(max(bound_curve))
    ok = worst_resid <= 1e-10 and recorded <= 5.0
    assert report(9, ok, f"commutator residual {worst_resid:.2e} (<= 1e-10), "
                         f"recorded sup ||Gamma|| + ||d_s Gamma|| = {recorded:.3f} "
                         f"(recorded bound 5.0) on s in [0, 5]")


def test_criterion_10_adiabatic_scaling(sweep):
    res, dt = sweep
    exps = res.exponents
    ok_exp = all(0.8 <= v <= 1.2 for v in exps.values())
    ok = ok_exp and res.unitarity_defect.max() <= 1e-8 and dt <= 600.0
    assert report(10, ok, "exponents " + ", ".join(
        f"{k}={v:.3f}" for k, v in exps.items())
        + f" (in [0.8, 1.2]), unitarity {res.unitarity_defect.max():.1e} "
          f"(<= 1e-8), {dt:.1f}s")


def test_criterion_11_exact_norm_identity(sweep):
    res, _ = sweep
    gap = float(np.max(np.abs(res.norm_uw_minus_uad - res.norm_c_minus_id)))
    ok = gap <= 1e-12
    assert report(11, ok, f"max | ||Uw-Uad|| - ||C-id|| | = {gap:.2e} "
                          f"(machine precision) over all samples and epsilons")


def test_criterion_12_cli_determinism(tmp_path):
    specs = [
        ["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
         "--s-end", "20", "--samples", "201"],
        ["reduced", "--phi", "0.5", "--s-max", "120"],
        ["spectral", "--s", "0.5", "--levels", "8", "--check", "all"],
        ["adiabatic", "--epsilons", "0.2,0.1", "--levels", "8", "--samples", "6"],
    ]
    ok = True
    for k, args in enumerate(specs):
        outs = []
        for rep in range(2):
            out = str(tmp_path / f"run{k}_{rep}")
            code = cli.main(args + ["--out", out])
            ok = ok and code == 0
            outs.append(out)
        for ext in (".csv", ".json"):
            with open(outs[0] + ext, "rb") as fa, open(outs[1] + ext, "rb") as fb:
                ok = ok and fa.read() == fb.read()
    assert report(12, ok, "repeated runs of all four commands produced "
                          "byte-identical CSV and JSON outputs")
