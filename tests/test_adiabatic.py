"""Propagators in the moving eigenbasis: phases, corrector, scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fluxramp import adiabatic as ad
from fluxramp.errors import WORKING_SET_BUDGET, ValidationError
from fluxramp.spectral import pi_matrix

import reference as ref

N_SMALL = 16


def cfg(eps, **kw):
    kw.setdefault("s_end", 2.0)
    kw.setdefault("n_samples", 11)
    kw.setdefault("N", N_SMALL)
    return ad.AdiabaticConfig(epsilon=eps, **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        ad.AdiabaticConfig(epsilon=0.0)
    with pytest.raises(ValidationError):
        ad.AdiabaticConfig(epsilon=1.5)
    with pytest.raises(ValidationError):
        ad.AdiabaticConfig(epsilon=0.1, s_end=-1.0)


def test_config_panel_budget():
    # the walk splits (0, s_end) into panels of width min(PANEL_MAX, eps/4);
    # a config is built right at the budget and refused one panel above it
    at_budget = ad.AdiabaticConfig(epsilon=1e-3, s_end=ad.MAX_PANELS * 2.5e-4)
    assert at_budget.panel_width == 2.5e-4
    with pytest.raises(ValidationError, match="budget"):
        ad.AdiabaticConfig(epsilon=1e-3, s_end=(ad.MAX_PANELS + 1) * 2.5e-4)
    with pytest.raises(ValidationError, match="inf panels"):
        ad.AdiabaticConfig(epsilon=5e-324)
    # a subnormal panel width overflows s_end / width to inf
    with pytest.raises(ValidationError, match="inf panels"):
        ad.AdiabaticConfig(epsilon=1e-310)


def test_config_working_set_budget():
    # about 40 N x N complex arrays plus 700 bytes per sample; configs are
    # built right at the budget and refused one level or sample above it
    n_max = math.isqrt(WORKING_SET_BUDGET // (16 * ad.N2_ARRAYS))
    ad.AdiabaticConfig(epsilon=0.1, N=n_max)
    with pytest.raises(ValidationError, match="working-set budget"):
        ad.AdiabaticConfig(epsilon=0.1, N=n_max + 1)
    # every sample interval takes a panel, so the samples are tested where
    # they bind inside the panel budget: next to about 1270 levels
    n = math.isqrt((WORKING_SET_BUDGET - ad.BYTES_PER_SAMPLE * ad.MAX_PANELS // 2)
                   // (16 * ad.N2_ARRAYS))
    k_max = (WORKING_SET_BUDGET - 16 * ad.N2_ARRAYS * n * n) // ad.BYTES_PER_SAMPLE
    assert ad.MAX_PANELS // 2 <= k_max <= ad.MAX_PANELS
    ad.AdiabaticConfig(epsilon=0.1, N=n, n_samples=k_max)
    with pytest.raises(ValidationError, match="working-set budget"):
        ad.AdiabaticConfig(epsilon=0.1, N=n, n_samples=k_max + 1)


@pytest.mark.parametrize("eps, kw", [
    (0.1, dict(n_samples=21)),                  # 10 panels per interval
    (0.03, dict(n_samples=41)),                 # 7, the last one narrower
    (0.2, dict(n_samples=501)),                 # intervals narrower than a panel: 1
    (0.05, dict(s_end=0.3, n_samples=4, panel_max=0.03)),  # exactly 8 of eps/4
    (0.4, dict(s_end=1.0, n_samples=2, panel_max=0.07)),
    # spacing a hair above 0.01, where the linspace noise in the interval
    # lengths decides between one and two panels: 14, where the nominal
    # spacing gives 20
    (0.1, dict(s_end=0.10000000000010002, n_samples=11)),
])
def test_config_panel_count_matches_walk(monkeypatch, eps, kw):
    # the budget's count is the walk's count
    kw = dict(kw)
    monkeypatch.setattr(ad, "PANEL_MAX", kw.pop("panel_max", ad.PANEL_MAX))
    config = cfg(eps, N=2, **kw)
    assert config.panels == sum(1 for _ in ad._panel_integrals(config, config.s_grid))


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.03, 0.02, 0.01])
def test_refinement_check_halves_the_walked_panel_width(monkeypatch, eps):
    # the walked width is min(PANEL_MAX, eps/4); halving it doubles the walk
    # also where eps/4 is the narrower bound (200, 200, 270, 400 and 800
    # panels), and the endpoint ||I|| holds to 1e-6
    c = cfg(eps)
    panels = c.panels
    _, norms = ad.twisted_coupling_integral(c)
    monkeypatch.setattr(ad, "PANEL_MAX", c.panel_width / 2.0)
    assert c.panels == 2 * panels
    _, norms_fine = ad.twisted_coupling_integral(c)
    assert abs(norms_fine[-1] - norms[-1]) <= 1e-6


def test_u_ad_identity_and_phases():
    assert_allclose(ad._u_ad(0.0, N_SMALL, 1.0), np.eye(N_SMALL), atol=0)
    # n = 0, eps = 1, s = 1: phase integral (2n+1)s + s^2 = 2 -> exp(-2i)
    u = ad._u_ad(1.0, 4, 1.0)
    assert_allclose(u[0, 0], np.exp(-2j), rtol=1e-15)
    assert_allclose(np.abs(np.diag(u)), 1.0, rtol=1e-15)


def test_u_ad_composition():
    eps = 0.3
    th = lambda s: ad.phase_integrals(s, N_SMALL, eps)
    full = np.exp(-1j * th(1.7))
    comp = np.exp(-1j * (th(1.7) - th(0.6))) * np.exp(-1j * th(0.6))
    assert np.max(np.abs(full - comp)) <= 1e-9


def test_zero_coupling_hooks(monkeypatch):
    monkeypatch.setattr(ad, "pi_matrix", ref.zero_pi)
    c = cfg(0.1)
    mats, norms = ad.twisted_coupling_integral(c)
    assert norms.max() == 0.0
    for m in ad.dyson_corrector(c):
        assert_allclose(m, np.eye(N_SMALL), atol=0)
    probes, r_ad, r_w = ref.residual_generator_check(c, probes=[0.8])
    assert_allclose(r_ad, r_w, atol=0)


def test_corrector_identity_at_zero_and_unitarity():
    seq = ad.dyson_corrector(cfg(0.1))
    assert_allclose(seq[0], np.eye(N_SMALL), atol=0)
    for m in seq:
        assert ad.unitarity_defect(m) <= 1e-10


def test_u_weak_difference_equals_corrector_distance():
    # ||U_w - U_ad|| = ||U_ad (C - id)|| = ||C - id||; the sweep's defect is
    # the worst over C and U_w
    res = ad.run_sweep(epsilons=(0.05,), s_end=2.0, N=N_SMALL, n_samples=11)
    assert res.unitarity_defect[0] <= 1e-10
    assert np.max(np.abs(res.norm_uw_minus_uad - res.norm_c_minus_id)) <= 1e-13


def test_epsilon_halving_ratios():
    # the three tracked quantities scale like eps: halving ratios in [1.6, 2.4]
    res = ad.run_sweep(epsilons=(0.2, 0.1), s_end=2.0, N=32, n_samples=21)
    for arr in (res.norm_twisted, res.norm_c_minus_id, res.norm_uw_minus_uad):
        sup_02, sup_01 = arr.max(axis=1)
        assert 1.6 <= sup_02 / sup_01 <= 2.4


def test_twisted_integral_s_scaling_bounded():
    c = ad.AdiabaticConfig(epsilon=0.1, s_end=5.0, n_samples=26, N=N_SMALL)
    _, norms = ad.twisted_coupling_integral(c)
    s = c.s_grid
    mask = s >= 1.0
    assert np.max(norms[mask] / s[mask]) < 1.0


def test_corrector_matches_two_term_dyson():
    # the corrector agrees with the partial sum id + i I(s) up to an
    # eps-small remainder; the second Dyson term carries a secular piece
    # (paths m -> k -> m oscillate only in s1 - s2), so the remainder is
    # O(eps), not O(eps^2), and it stays well below the first-order term
    rems = {}
    for eps in (0.2, 0.1):
        c = cfg(eps, n_samples=21, N=32)
        mats, _ = ad.twisted_coupling_integral(c)
        cs = ad.dyson_corrector(c)
        ident = np.eye(32)
        rem = max(np.linalg.norm(cs[k] - ident - 1j * mats[k], 2)
                  for k in range(len(mats)))
        sup_i = max(np.linalg.norm(m, 2) for m in mats)
        assert rem <= 0.5 * sup_i
        rems[eps] = rem
    assert 1.6 <= rems[0.2] / rems[0.1] <= 2.4


def test_residual_generator_check():
    c = cfg(0.2, N=16)
    probes, r_ad, r_w = ref.residual_generator_check(c, probes=[0.5, 1.0, 1.5])
    assert np.max(r_ad) <= 1e-4
    # U_w solves the truncated equation identically; only differencing shows
    assert np.max(r_w) <= 1e-4


def test_truncation_doubling():
    vals = {}
    for n in (32, 64):
        c = ad.AdiabaticConfig(epsilon=0.1, s_end=2.0, n_samples=3, N=n)
        cs = ad.dyson_corrector(c)
        vals[n] = np.linalg.norm(cs[-1] - np.eye(n), 2)
    assert abs(vals[64] - vals[32]) / vals[32] < 0.10


def test_run_sweep_exponent_window():
    res = ad.run_sweep(epsilons=(0.2, 0.1, 0.05), s_end=2.0, N=32, n_samples=21)
    for name, value in res.exponents.items():
        assert 0.8 <= value <= 1.2, name
    assert res.unitarity_defect.max() <= 1e-8


def test_run_sweep_single_epsilon_skips_fit():
    res = ad.run_sweep(epsilons=(0.1,), s_end=1.0, N=N_SMALL, n_samples=6)
    assert res.exponents is None
    assert res.norm_twisted.shape == (1, 6)


def test_run_sweep_rows_equal_public_views():
    # one walk per epsilon in the sweep, two separate walks in the views:
    # the same panels in the same order give the same bits
    epsilons = (0.2, 0.07)
    res = ad.run_sweep(epsilons=epsilons, s_end=1.3, N=12, n_samples=9)
    ident = np.eye(12)
    for i, eps in enumerate(res.epsilons):
        c = ad.AdiabaticConfig(epsilon=float(eps), s_end=1.3, n_samples=9, N=12)
        _, norms = ad.twisted_coupling_integral(c)
        assert np.array_equal(res.norm_twisted[i], norms)
        cs = ad.dyson_corrector(c)
        assert np.array_equal(res.norm_c_minus_id[i],
                              [np.linalg.norm(m - ident, 2) for m in cs])


def _panel_reference(N, eps, a, b):
    """One Filon/Magnus panel straight from the formulas: moments on the
    full N x N frequency matrix, the phase exp(i omega mid) entrywise and
    the four products of Omega_2."""
    n = np.arange(N)
    omega = 2.0 * (n[:, None] - n[None, :]) / eps
    c, mid = 0.5 * (b - a), 0.5 * (a + b)
    pa, pm, pb = (pi_matrix(t, N) for t in (a, mid, b))
    beta = (pb - pa) / (2.0 * c)
    gamma = (pa + pb - 2.0 * pm) / (2.0 * c * c)
    m0, m1, m2 = ad._moments(omega, c)
    phase = np.exp(1j * omega * mid)
    block = phase * (pm * m0 + beta * m1 + gamma * m2)
    inv_iw = np.zeros((N, N), dtype=complex)
    off = omega != 0.0
    inv_iw[off] = 1.0 / (1j * omega[off])
    pf = pm * m0
    pe = pm * np.exp(-1j * omega * c) * inv_iw
    pw = pm * inv_iw
    dd = m0 * (pm @ pw - pw @ pm) - pf @ pe + pe @ pf
    # on short panels Omega_2 is a small difference of O(c) products, so
    # rounding is measured against the products themselves
    scale = 0.5 * max(np.max(np.abs(m0 * (pm @ pw))), np.max(np.abs(pf @ pe)))
    return block, -0.5 * phase * dd, scale


def _rel_gap(got, ref, scale=0.0):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), scale)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 24),
       eps=st.floats(0.01, 1.0, exclude_min=True),
       start=st.floats(0.0, 2.0),
       gaps=st.lists(st.floats(1e-3, 0.2), min_size=1, max_size=3),
       panel_max=st.floats(5e-3, 0.2))
def test_panel_walk_matches_per_panel_formulas(N, eps, start, gaps, panel_max):
    stops = start + np.concatenate([[0.0], np.cumsum(gaps)])
    config = ad.AdiabaticConfig(epsilon=eps, s_end=1.0, N=N)
    ends = []
    # hypothesis rejects function-scoped fixtures, so no monkeypatch argument
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "PANEL_MAX", panel_max)
        for a, b, block, omega2 in ad._panel_integrals(config, stops):
            ref_block, ref_omega2, scale = _panel_reference(N, eps, a, b)
            assert _rel_gap(block, ref_block) <= 1e-12
            assert _rel_gap(omega2, ref_omega2, scale) <= 1e-12
            assert _rel_gap(block.conj().T, block) <= 1e-14
            assert b > a
            ends.append(b)
    assert set(stops[1:].tolist()) <= set(ends)


@pytest.mark.parametrize("delta", [0.0, 1e-14, 1e-10, 1e-6, 1e-2])
def test_unitarity_defect_matches_two_norm(delta):
    rng = np.random.default_rng(7)
    n = 24
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    bump = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = q @ (np.eye(n) + delta * bump)
    got = ad.unitarity_defect(m)
    assert abs(got - np.linalg.norm(m.conj().T @ m - np.eye(n), 2)) <= 1e-15
