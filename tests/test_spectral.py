"""Eigenfamily, coupling operator, commutator potential, kernel bound."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, roots_genlaguerre

from fluxramp import adiabatic as ad
from fluxramp import spectral as sp
from fluxramp.errors import (WORKING_SET_BUDGET, GridTooCoarse, NoConvergence,
                             ValidationError)

import reference as ref

# i <chi_m, d_s chi_n> computed once from the exact normalized
# eigenfunctions with a 50-digit central difference (delta = 1e-12)
COUPLING_ORACLE = {
    (0.8, 0, 1): 0.372677996250,
    (0.8, 1, 3): 0.187734815371,
    (0.8, 0, 4): 0.063868681196,
    (0.8, 2, 3): 0.444261658319,
    (0.3, 0, 1): 0.438529009654,
    (0.3, 1, 3): 0.222277112237,
    (0.3, 0, 4): 0.094013201433,
    (0.3, 2, 3): 0.476731294623,
    (2.0, 0, 1): 0.288675134595,
    (2.0, 1, 3): 0.136930639376,
    (2.0, 0, 4): 0.032274861218,
    (2.0, 2, 3): 0.387298334621,
}


def test_sector_params_validation():
    with pytest.raises(ValidationError):
        sp.SectorParams(s=-0.1)
    with pytest.raises(ValidationError):
        sp.SectorParams(s=1.0, N=1)


def test_sector_params_working_set_budget():
    # the oracle's finest-grid arrays grow with N, the dense checks with
    # N^2; the largest admitted family and one level more (validators only)
    def bytes_at(n):
        return sp.ORACLE_BYTES_PER_LEVEL * n + sp.DENSE_BYTES_PER_ENTRY * n * n

    n_max = max(n for n in range(2, 4096) if bytes_at(n) <= WORKING_SET_BUDGET)
    assert n_max == 2228  # the README size table
    assert sp.SectorParams(s=1.0, N=n_max).N == n_max
    for n in (n_max + 1, 10 ** 40):
        with pytest.raises(ValidationError, match="working-set budget"):
            sp.SectorParams(s=1.0, N=n)


@pytest.mark.parametrize("N", [2, 64])
def test_sector_params_energies_stay_distinct_doubles(N):
    # while E_{N-1} = 2N + 2s - 1 stays below 2^53 every gap is exactly 2;
    # the first s that puts it at 2^53 is refused (from s = 2^52 on, the
    # doubles are 2 apart and rounding merges pairs of energies)
    s_limit = 2.0 ** 52 - N + 0.5
    fam = sp.analytic_spectrum(sp.SectorParams(s=np.nextafter(s_limit, 0.0), N=N))
    assert np.all(np.diff(fam.energies) == 2.0)
    with pytest.raises(ValidationError, match="reach 2\\^53"):
        sp.SectorParams(s=s_limit, N=N)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
def test_orthonormality_and_gaps(s):
    fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=64))
    nodes, fold = ref.dx_quadrature(s, 2 * 64 + 16)
    ch = ref.eval_chi(fam, nodes) * fold[None, :]
    gram = ch @ ch.T
    assert np.max(np.abs(gram - np.eye(64))) <= 1e-10
    assert np.all(np.diff(fam.energies) == 2.0)
    assert fam.energies[0] == 2.0 * s + 1.0


def test_oscillator_limit_eigenvalues():
    fam = sp.analytic_spectrum(sp.SectorParams(s=0.0, N=8))
    assert_allclose(fam.energies, [1, 3, 5, 7, 9, 11, 13, 15], atol=0)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0])
def test_fd_oracle_agreement(s, monkeypatch):
    monkeypatch.setattr(sp, "FD_CELLS", 8000)
    par = sp.SectorParams(s=s, N=16)
    fam = sp.analytic_spectrum(par)
    fd = sp.fd_spectrum(par)
    half = slice(0, 8)
    assert np.max(np.abs(fd.energies[half] - fam.energies[half])) <= 1e-6
    assert np.min(fd.overlaps_with_analytic(fam)[half]) >= 1.0 - 1e-6


def test_fd_three_level_richardson_is_fourth_order(monkeypatch):
    # the raw error is c2 h^2 + c4 h^4 + ...: the two-level values R
    # remove h^2 and fall 16x per halving, and the three-level value
    # removes h^4 as well; grids coarse enough to stay far above the
    # bisection floor
    s, n, m = 0.5, 6, 250
    r_max = sp.fd_r_max(s, n)
    exact = 2.0 * np.arange(n) + 2.0 * s + 1.0
    e = [sp._fd_solve(s, n, r_max, m * 2 ** k) for k in range(4)]
    err_r = [np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact))
             for coarse, fine in zip(e, e[1:])]
    for coarse, fine in zip(err_r, err_r[1:]):
        assert 12.0 <= coarse / fine <= 20.0
    monkeypatch.setattr(sp, "FD_CELLS", m)
    err_three = np.max(np.abs(sp.fd_spectrum(sp.SectorParams(s=s, N=n),
                                             r_max=r_max).energies - exact))
    assert err_three <= 1e-2 * min(err_r[0], err_r[1])


def test_fd_half_solve_matches_full_solve_on_same_grid():
    # the CLI oracle solves only the checked lower half of the levels on the
    # grid of the full family; with an explicit bisection tolerance those
    # energies do not depend on how many levels were requested (the default
    # LAPACK stop at ulp * ||T||_1 moved them by 4.8e-9 here)
    s, n = 0.5, 16
    r_max = sp.fd_r_max(s, n)
    full = sp.fd_spectrum(sp.SectorParams(s=s, N=n))
    half = sp.fd_spectrum(sp.SectorParams(s=s, N=n // 2), r_max=r_max)
    assert half.energies.shape == (n // 2,)
    assert np.max(np.abs(half.energies - full.energies[: n // 2])) <= 1e-9
    coarse_half, coarse_full = (sp._fd_solve(s, k, r_max, sp.FD_CELLS) for k in (n // 2, n))
    assert np.max(np.abs(coarse_half - coarse_full[: n // 2])) <= 1e-9
    assert np.array_equal(half.r, full.r)


@pytest.mark.parametrize("s", [0.0, 1.3])
def test_fd_values_only_coarse_solve_is_bit_identical(s):
    # the bisected grid needs no vectors: stebz gives the same bits whether
    # or not eigh_tridiagonal goes on to inverse iteration
    diag, lower = sp._fd_operator(s, sp.fd_r_max(s, 6), 6000)[:2]
    with_vectors = eigh_tridiagonal(diag, lower, select="i", select_range=(0, 5),
                                    tol=sp.FD_BISECTION_TOL)[0]
    assert np.array_equal(sp._fd_solve(s, 6, sp.fd_r_max(s, 6), 6000), with_vectors)


@pytest.mark.parametrize("levels, bisection_floor", [(8, 5e-10), (64, 2e-10),
                                                     (128, 2e-10)])
def test_fd_rayleigh_quotients_match_bisection_on_finest_grid(levels, bisection_floor):
    # the CLI path at the default cells: the lower half of the family on its
    # radius, the 24k- and 48k-cell energies from Rayleigh-quotient
    # iteration up the ladder 12k -> 24k -> 48k.  Bisection on the same grid
    # agrees to its own rounding floor, about 0.05 ulp * ||T||_1 (the Sturm
    # count is exact only for a nearby matrix): 1.3e-10 at 64 levels,
    # 4.5e-10 at 8, whose grid is 2.1x finer.  At 128 levels this holds
    # level 59 on 24k cells (2.9e-11 off), where fixed-shift inverse
    # iteration from the 12k energies sat 1.2e-9 off.  The quotients are the
    # closer values: the three-level energies they give sit within 1e-11 of
    # the closed form (3.1e-12 measured; bisected: 6e-10 at 8 levels)
    s, n = 1.5, levels // 2
    r_max = sp.fd_r_max(s, levels)
    e_h = sp._fd_solve(s, n, r_max, sp.FD_CELLS)
    e_h2 = sp._fd_refine(s, r_max, 2 * sp.FD_CELLS, e_h)[0]
    refined = sp._fd_refine(s, r_max, 4 * sp.FD_CELLS, e_h2)[0]
    for cells, ladder in ((2, e_h2), (4, refined)):
        bisected = sp._fd_solve(s, n, r_max, cells * sp.FD_CELLS)
        assert np.max(np.abs(ladder - bisected)) <= bisection_floor
    exact = 2.0 * np.arange(n) + 2.0 * s + 1.0
    assert np.max(np.abs(sp._richardson(e_h, e_h2, refined) - exact)) <= 1e-11


@pytest.mark.parametrize("levels", [64, 128])
@pytest.mark.parametrize("s", [0.0, 7.0, 25.0])
def test_fd_ladder_matches_bisection_on_both_refined_grids(s, levels):
    # each rung of the ladder starts from the energies of the rung below;
    # on the 24k and the 48k grid alike it lands within the bisection
    # floor of stebz on that grid (at most 1.4e-10 measured); s = 1.5 is
    # the test above
    n = levels // 2
    r_max = sp.fd_r_max(s, levels)
    energies = sp._fd_solve(s, n, r_max, sp.FD_CELLS)
    for cells in (2 * sp.FD_CELLS, 4 * sp.FD_CELLS):
        energies = sp._fd_refine(s, r_max, cells, energies)[0]
        assert np.max(np.abs(energies - sp._fd_solve(s, n, r_max, cells))) <= 2e-10


def _dgtsv_replaced(monkeypatch, make):
    """Route the oracle's tridiagonal solves through ``make(real_dgtsv)``."""
    from scipy.linalg import lapack
    monkeypatch.setattr(lapack, "dgtsv", make(lapack.dgtsv))


def _first_step(b):
    """Whether a solve's right-hand side is the start vector of a mode."""
    return b.min() == b.max()


def test_fd_refine_unconverged_modes_raise_no_convergence(monkeypatch):
    # one step from the vector of ones leaves every mode short of the
    # residual test (the ladder takes two)
    monkeypatch.setattr(sp, "FD_CELLS", 2000)
    monkeypatch.setattr(sp, "FD_RQI_STEPS", 1)
    with pytest.raises(NoConvergence, match="4 of 4 oracle modes unconverged on 4000 cells"):
        sp.fd_spectrum(sp.SectorParams(s=0.5, N=4))


def test_fd_refine_zero_pivot_ends_the_iteration(monkeypatch):
    # a zero pivot (gtsv info > 0) makes sigma an eigenvalue to working
    # precision: the mode keeps its last vector and counts as converged.
    # Every step after the first reports one here, so each mode ends on its
    # first iterate, whose quotient is still close
    monkeypatch.setattr(sp, "FD_CELLS", 2000)
    par = sp.SectorParams(s=0.5, N=4)
    converged = sp.fd_spectrum(par).energies

    def make(real):
        def solve(dl, d, du, b, **flags):
            if _first_step(b):
                return real(dl, d, du, b, **flags)
            return dl, d, du, b, 1
        return solve

    _dgtsv_replaced(monkeypatch, make)
    one_step = sp.fd_spectrum(par).energies
    assert 0.0 < np.max(np.abs(one_step - converged)) <= 1e-8


@pytest.mark.parametrize("fault", ["reversed", "next_level"])
def test_fd_refine_modes_off_their_shifts_raise_grid_too_coarse(monkeypatch, fault):
    # the first step of each 24k-analog mode solves at another level: the
    # coarse energies in reverse order give decreasing energies; the next
    # level up (the shift moved by the gap 2) increasing energies that sit
    # nearer the next shift
    s, n = 0.5, 4
    monkeypatch.setattr(sp, "FD_CELLS", 2000)
    shifts = sp._fd_solve(s, n, sp.fd_r_max(s, n), 2000)
    moves = iter(shifts[::-1] - shifts if fault == "reversed" else np.full(n, 2.0))

    def make(real):
        def solve(dl, d, du, b, **flags):
            if _first_step(b):
                d -= next(moves, 0.0)
            return real(dl, d, du, b, **flags)
        return solve

    _dgtsv_replaced(monkeypatch, make)
    with pytest.raises(GridTooCoarse, match="on 4000 cells do not follow their "
                                            "Richardson shifts"):
        sp.fd_spectrum(sp.SectorParams(s=s, N=n))


def test_fd_refine_rejects_shifts_out_of_order():
    # the ladder needs ascending shifts; energies of the grid below out of
    # order mean that grid resolves no level ordering at all
    with pytest.raises(GridTooCoarse, match="Richardson shifts"):
        sp._fd_refine(0.5, sp.fd_r_max(0.5, 4), 2000, np.array([4.0, 2.0]))


def test_fd_overlaps_need_the_solved_levels(monkeypatch):
    monkeypatch.setattr(sp, "FD_CELLS", 4000)
    fd = sp.fd_spectrum(sp.SectorParams(s=0.5, N=4), r_max=sp.fd_r_max(0.5, 8))
    wide = sp.analytic_spectrum(sp.SectorParams(s=0.5, N=8))
    narrow = sp.analytic_spectrum(sp.SectorParams(s=0.5, N=3))
    assert np.min(fd.overlaps_with_analytic(wide)) >= 1.0 - 1e-5
    assert fd.overlaps_with_analytic(wide).shape == (4,)
    with pytest.raises(ValidationError):
        fd.overlaps_with_analytic(narrow)


def test_fd_overlaps_hold_a_few_rows(monkeypatch):
    # the analytic modes come one row at a time: the transient is about 11
    # finest-grid rows (the recurrence's and the mode weight's temporaries),
    # not the 32 x cells array of the solved levels (38 rows with those)
    monkeypatch.setattr(sp, "FD_CELLS", 2000)
    fd = sp.fd_spectrum(sp.SectorParams(s=0.5, N=32), r_max=sp.fd_r_max(0.5, 64))
    fam = sp.analytic_spectrum(sp.SectorParams(s=0.5, N=64))
    tracemalloc.start()
    try:
        overlaps = fd.overlaps_with_analytic(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert overlaps.shape == (32,)
    assert peak <= 16 * fd.r.nbytes


def test_fd_spectrum_holds_its_modes_and_a_few_rows(monkeypatch):
    # beyond the 32 x cells block of its modes the oracle holds its operator,
    # four work rows of the tridiagonal solve and the quotients' temporaries:
    # 11.3 finest-grid rows measured, so per-step temporaries cannot creep
    # back
    monkeypatch.setattr(sp, "FD_CELLS", 2000)
    tracemalloc.start()
    try:
        fd = sp.fd_spectrum(sp.SectorParams(s=0.5, N=32), r_max=sp.fd_r_max(0.5, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fd.g.shape == (32, 8000)
    assert peak - fd.g.nbytes <= 12 * fd.r.nbytes


def test_fd_refinement_check_passes_on_fine_grid(monkeypatch):
    # an h/8 rung, refined like the h/4 one from the rung below it, moves
    # the three-level value by at most 1e-6
    monkeypatch.setattr(sp, "FD_CELLS", 6000)
    s, n = 0.5, 6
    r_max = sp.fd_r_max(s, n)
    fd = sp.fd_spectrum(sp.SectorParams(s=s, N=n))
    assert fd.energies.shape == (6,)
    assert fd.r.size == 24000
    e_h2 = sp._fd_refine(s, r_max, 12000, sp._fd_solve(s, n, r_max, 6000))[0]
    e_h4 = sp._fd_refine(s, r_max, 24000, e_h2)[0]
    e_h8 = sp._fd_refine(s, r_max, 48000, e_h4)[0]
    assert np.max(np.abs(sp._richardson(e_h2, e_h4, e_h8) - fd.energies)) <= 1e-6


def test_coupling_against_extended_precision_oracle():
    for (s, m, n), ref in COUPLING_ORACLE.items():
        fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=8))
        got = sp.coupling_matrix(fam)[m, n]
        assert got.real == 0.0
        assert abs(got.imag - ref) < 1e-11, (s, m, n)


def test_coupling_against_float_quadrature():
    # plain Gauss rule at weight x^(s-1) e^-x; ill-conditioned at far nodes,
    # so the agreement threshold is loose; the closed form is the keeper
    for s in (0.8, 1.5):
        N = 12
        fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=N))
        x, w = roots_genlaguerre(N + 8, s - 1.0)
        lag = np.zeros((N, x.size))
        lag[0] = 1.0
        lag[1] = 1.0 + s - x
        for k in range(1, N - 1):
            lag[k + 1] = ((2 * k + 1 + s - x) * lag[k] - (k + s) * lag[k - 1]) / (k + 1)
        norm = np.exp(0.5 * (gammaln(np.arange(N) + 1) - gammaln(np.arange(N) + s + 1)))
        ell = lag * norm[:, None]
        overlap = (ell * w[None, :]) @ ell.T
        p_quad = np.zeros((N, N), dtype=complex)
        for m in range(N):
            for n in range(N):
                if m != n:
                    p_quad[m, n] = 1j * s * overlap[m, n] / (2.0 * (n - m))
        assert np.max(np.abs(p_quad - sp.coupling_matrix(fam))) < 1e-7


def test_coupling_structure():
    for s in (0.0, 0.5, 2.0):
        pi = sp.coupling_matrix(sp.analytic_spectrum(sp.SectorParams(s=s, N=48)))
        assert np.linalg.norm(pi - pi.conj().T, 2) <= 1e-10
        assert np.max(np.abs(np.diag(pi))) <= 1e-10


def test_coupling_envelope_band():
    for s in (0.5, 1.0, 2.0):
        N = 64
        p = sp.coupling_matrix(sp.analytic_spectrum(sp.SectorParams(s=s, N=N)))
        for d in range(1, N // 2 + 1):
            m = np.arange(0, N - d)
            ratio = np.abs(p[m, m + d]) * d * ((m + d + 1) / (m + 1)) ** (s / 2.0)
            assert ratio.min() >= 0.1 and ratio.max() <= 10.0, (s, d)


def _pi_unfactored(s, N):
    """The closed form as Gamma(s+1) exp(log u_m + log u_n) cum[min(m, n)]
    i/(2(n-m)); Gamma(s+1) overflows from s = 171 on."""
    n = np.arange(N)
    log_u = 0.5 * (gammaln(n + 1) - gammaln(n + s + 1))
    if s > 0:
        rising = np.exp(gammaln(n + s) - gammaln(s) - gammaln(n + 1))
    else:
        rising = np.eye(1, N)[0]
    m, k = n[:, None], n[None, :]
    val = (np.exp(gammaln(s + 1)) * np.exp(log_u[m] + log_u[k])
           * np.cumsum(rising)[np.minimum(m, k)])
    p = np.zeros((N, N), dtype=complex)
    off = m != k
    p[off] = (1j * val / (2.0 * (k - m) + np.eye(N)))[off]
    return p


@pytest.mark.parametrize("s", [0.0, 0.3, 1.7, 5.0])
def test_pi_matrix_matches_unfactored_form(s):
    ref = _pi_unfactored(s, 8)
    got = sp.pi_matrix(s, 8)
    off = ref != 0
    assert np.array_equal(off, got != 0)
    assert np.max(np.abs(got[off] - ref[off]) / np.abs(ref[off])) <= 1e-13


@pytest.mark.parametrize("s", [171.0, 200.0])
def test_pi_matrix_finite_beyond_gamma_overflow(s):
    p = sp.pi_matrix(s, 8)
    assert np.all(np.isfinite(p))
    assert np.array_equal(p, p.conj().T)
    assert np.all(np.diag(p) == 0.0) and np.all(p[~np.eye(8, dtype=bool)] != 0.0)


@pytest.mark.parametrize("s, n", [(1.8e6, 64), (2.0e6, 64), (1e7, 64), (1.4e4, 128)])
def test_pi_matrix_past_running_product_underflow(s, n):
    # prod_{k<N} k/(k+s) underflows a double from s = 1.9e6 at 64 levels
    # and s = 1.3e4 at 128; entries against 40-digit w_n/w_m i/(2(n-m))
    mp = pytest.importorskip("mpmath")
    p = sp.pi_matrix(s, n)
    assert np.all(np.isfinite(p)) and np.array_equal(p, p.conj().T)
    with mp.workdps(40):
        log_w = [mp.mpf(0)]
        for k in range(1, n):
            log_w.append(log_w[-1] + mp.log(mp.mpf(k) / (k + mp.mpf(s))) / 2)
        for m, k in [(0, 1), (0, 5), (3, 4), (10, 13), (n - 2, n - 1), (n // 2, n - 1)]:
            ref = mp.exp(log_w[k] - log_w[m]) / (2 * (k - m))
            assert p[m, k].real == 0.0
            assert abs(float((mp.mpf(p[m, k].imag) - ref) / ref)) <= 1e-12, (m, k)


@pytest.mark.parametrize("s, n", [(0.0, 64), (1.7, 64), (2e6, 64), (1e14, 8), (4e15, 8),
                                  (0.5, 2228)])
def test_pi_derivative_matches_extended_precision(s, n):
    # d_s of the entries w_k/w_m i/(2(k-m)) by a 50-digit mpmath derivative,
    # through the running product's underflow (2e6), past s = 2^44 where
    # s +/- 1e-3 rounds to s (1e14, 4e15), and at the largest family (2228)
    mp = pytest.importorskip("mpmath")
    d = sp.pi_derivative(s, n)
    assert np.all(np.isfinite(d)) and np.array_equal(d, d.conj().T)
    assert np.all(np.diag(d) == 0.0)
    with mp.workdps(50):
        for m, k in [(0, 1), (0, 5), (3, 4), (n - 2, n - 1), (n // 2, n - 1), (0, n - 1)]:
            def entry(t):
                log_ratio = mp.fsum(mp.log(mp.mpf(j) / (j + t)) for j in range(m + 1, k + 1))
                return mp.exp(log_ratio / 2) / (2 * (k - m))
            ref = mp.diff(entry, mp.mpf(s))
            assert d[m, k].real == 0.0
            assert abs(float((mp.mpf(d[m, k].imag) - ref) / ref)) <= 1e-12, (m, k)


@pytest.mark.parametrize("s", [0.0, 1.3, 2e6])
def test_pi_is_one_array(s):
    # the closed form and the family's coupling are one ndarray, bit for
    # bit, and the propagators call the closed form itself
    p = sp.pi_matrix(s, 16)
    assert type(p) is np.ndarray and p.shape == (16, 16)
    fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=16))
    assert np.array_equal(sp.coupling_matrix(fam), p)
    assert ad.pi_matrix is sp.pi_matrix


def test_coupling_exact_value_at_s_one():
    # at s = 1 the closed form collapses to sqrt((m+1)/(n+1))/(2(n-m))
    p = sp.coupling_matrix(sp.analytic_spectrum(sp.SectorParams(s=1.0, N=12)))
    m, n = 3, 7
    assert_allclose(p[m, n].imag, np.sqrt((m + 1) / (n + 1)) / (2 * (n - m)),
                    rtol=1e-13)


def test_coupling_norm_zero_matrix_and_shrinking_differences():
    est = sp.coupling_norm(np.zeros((16, 16), dtype=complex), [4, 8, 16])
    assert ref.geometric_extrapolation(est.norms) == 0.0
    pi = sp.coupling_matrix(sp.analytic_spectrum(sp.SectorParams(s=1.0, N=64)))
    est = sp.coupling_norm(pi, [8, 16, 32, 64])
    diffs = np.diff(est.norms)
    assert np.all(diffs > 0) and np.all(np.diff(diffs) < 0)
    assert ref.geometric_extrapolation(est.norms) >= est.norms[-1]


def test_empirical_m_table_majorant_nondecreasing():
    rows = ref.empirical_m_table([0.0, 0.5, 1.0, 2.0, 4.0], N=32)
    maj = [r["majorant"] for r in rows]
    assert all(b >= a for a, b in zip(maj, maj[1:]))
    for r in rows:
        assert r["extrapolated"] <= r["majorant"] + 1e-12


def test_gamma_commutator_and_bounds():
    consts = []
    for s in np.linspace(0.0, 5.0, 6):
        fam = sp.analytic_spectrum(sp.SectorParams(s=s, N=32))
        pi = sp.coupling_matrix(fam)
        gam = sp.gamma_potential(pi, fam)
        assert sp.commutator_residual(gam, pi, fam) <= 1e-10
        assert np.max(np.abs(gam - gam.conj().T)) <= 1e-12
        assert np.max(np.abs(np.diag(gam))) == 0.0
        h = 1e-4
        gp = sp.gamma_potential(sp.coupling_matrix(
            sp.analytic_spectrum(sp.SectorParams(s=s + h, N=32))), fam)
        consts.append(np.linalg.norm(gam, 2) + np.linalg.norm(gp - gam, 2) / h)
    # uniformly bounded on the sampled ramp interval; record-style assertion
    assert max(consts) < 5.0


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_kernel_bound(s):
    res = sp.kernel_bound_check(s)
    assert res.refined_norm <= res.bound + 1e-6
    assert res.norm <= res.refined_norm <= res.bound
    assert res.tail_estimate < 1e-6


def test_kernel_norm_nonincreasing_in_s():
    norms = [sp.kernel_bound_check(s).norm
             for s in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def _explicit_kernel_toeplitz(n):
    """The check's n-point matrix at sigma = 1, entry by entry."""
    du = 2.0 * sp.KERNEL_DECAY_LENGTHS / (n - 1)
    k = np.subtract.outer(np.arange(n), np.arange(n))
    return 1j * du * np.sign(k) * np.exp(-du * np.abs(k)), du


@pytest.mark.parametrize("n", [40, 201, 600])
def test_kernel_structured_norm_matches_dense(n):
    t, _ = _explicit_kernel_toeplitz(n)
    dense = np.linalg.eigvalsh(t)
    assert_allclose(-dense[0], dense[-1], rtol=1e-13)  # spectrum symmetric about 0
    assert_allclose(sp._toeplitz_kernel_norm(n)[0], dense[-1], rtol=1e-13, atol=0)


def test_kernel_pencil_identity_and_bracket():
    from scipy.linalg import lapack
    t, du = _explicit_kernel_toeplitz(40)
    rho = np.exp(-du)
    shift = np.eye(40, k=-1)
    ell = np.eye(40) - rho * shift
    assert_allclose(ell @ t @ ell.T, 1j * du * rho * (shift - shift.T), atol=1e-15)
    # du/sinh(du), the sup of the symbol, lies above the spectrum on every
    # grid the check uses: the tridiagonal test succeeds there
    for n in (40, sp.KERNEL_GRID, 2 * sp.KERNEL_GRID):
        du = 2.0 * sp.KERNEL_DECAY_LENGTHS / (n - 1)
        rho, lam = np.exp(-du), du / np.sinh(du)
        diag = np.full(n, lam * (1.0 + rho * rho))
        diag[0] = lam
        assert lapack.dpttrf(diag, np.full(n - 1, rho * np.hypot(lam, du)))[-1] == 0


def test_kernel_norm_scales_as_one_over_sigma():
    # sigma du does not depend on s, so norm * sigma is one number
    scaled = [sp.kernel_bound_check(s).norm * (s + 0.5) for s in (0.0, 1.5, 1e6)]
    assert_allclose(scaled, scaled[0], rtol=1e-14, atol=0)


def test_kernel_grid_too_coarse(monkeypatch):
    monkeypatch.setattr(sp, "KERNEL_GRID", 40)
    monkeypatch.setattr(sp, "KERNEL_DRIFT_LIMIT", 1e-9)
    with pytest.raises(GridTooCoarse):
        sp.kernel_bound_check(0.0)


def test_sign_sweep_continuity():
    # the positive-L-coefficient convention needs no sign flip along s
    grid = [sp.SectorParams(s=si, N=16) for si in np.arange(0.0, 0.1 + 1e-12, 0.01)]
    fams = [sp.analytic_spectrum(par) for par in grid]
    for a, b in zip(fams, fams[1:]):
        assert np.min(ref.overlap_diag(a, b)) > 0.0


def test_eval_chi_orthonormal_on_independent_grid():
    # direct evaluation plus Christoffel folds reproduces orthonormality,
    # tying eval_chi, eval_psi and the quadrature machinery together
    fam = sp.analytic_spectrum(sp.SectorParams(s=0.7, N=8))
    nodes, fold = ref.dx_quadrature(0.7, 64)
    ch = ref.eval_chi(fam, nodes) * fold[None, :]
    assert np.max(np.abs(ch @ ch.T - np.eye(8))) < 1e-12
    r = np.sqrt(2.0 * nodes)
    assert_allclose(ref.eval_psi(fam, r), ref.eval_chi(fam, nodes), atol=0)


def test_fd_grid_representable_matches_full_grid():
    # the predicate reads the two end cells only; the terms of the whole
    # grid must agree with it, on both sides of the underflow limit and
    # of the outer overflow
    m_cells = 3000
    for N in (2, 8, 4096):
        for s in np.linspace(0.0, 60.0, 121):
            r_max = sp.fd_r_max(s, N)
            h = r_max / m_cells
            with np.errstate(all="ignore"):
                _, mbar, lower, kinetic = sp._fd_weights(
                    s, np.arange(m_cells + 1) * h, h)
            full = bool(np.all(np.isfinite(kinetic)) and np.all(np.isfinite(lower))
                        and np.all(lower != 0.0) and np.all(mbar > 0.0))
            assert sp.fd_grid_representable(s, r_max, m_cells) == full, (N, s)
    assert sp.fd_grid_representable(20.0, sp.fd_r_max(20.0, 8), 4 * sp.FD_CELLS)
    assert not sp.fd_grid_representable(30.0, sp.fd_r_max(30.0, 8), 4 * sp.FD_CELLS)


def test_fd_spectrum_rejects_grid_out_of_double_range():
    with pytest.raises(ValidationError):
        sp.fd_spectrum(sp.SectorParams(s=30.0, N=4), r_max=sp.fd_r_max(30.0, 8))
