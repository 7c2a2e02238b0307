"""Adiabatic propagator, Dyson corrector and their error scaling.

All propagators are matrices in the moving eigenbasis of the analytic
family, truncated to N levels.  There the adiabatic propagator is the
pure phase

    U_ad(s) = diag exp(-(i/eps) Theta_n(s)),
    Theta_n(s) = integral_0^s E_n = (2n+1) s + s^2,

and the corrector solves i dC/ds = -W(s) C with the twisted coupling
W(s) = U_ad^(-1) Pi U_ad, whose entries carry the pure phases
exp(2i(m-n)s/eps) (the s^2 parts of the phase integrals cancel in the
differences).  C lives in the fixed initial basis; U_w = U_ad C is formed
from it per sample in run_sweep, never propagated on its own.

Time stepping never resolves the 1/eps phases by brute force: each panel
integral of W uses a quadratic (Filon) model of the slowly varying Pi
against exact oscillatory moments, and C advances by the exponential of
that panel integral plus its commutator term (a second-order Magnus step).
Pi is purely imaginary, so a panel's arithmetic is real up to its phase.
The exponential is the Taylor polynomial of degree 6 (_magnus_step), whose
remainder stays below half an ulp on every panel PANEL_MAX admits; the
step is not unitary by construction, and StepFailure guards the drift.
Panel size is tied to eps only mildly (h <= min(PANEL_MAX, eps/4)) to
keep the remainder of the Magnus step negligible.  The twisted integral
I(s) is the running sum of the same panel integrals, so one walk over the
panels yields I and C together.

On the N-level truncation U_ad satisfies its own generator identity
exactly and U_w satisfies i eps dU_w/ds = H U_w identically (the corrector
construction closes in finite dimensions); the tests' finite-difference
residuals of both identities measure differencing, not a mathematical gap.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from .errors import StepFailure, ValidationError, check_working_set
from .spectral import pi_matrix

# Most Filon/Magnus panels one epsilon may walk (AdiabaticConfig.panels):
# a panel costs about 0.16 ms at 4 levels and 0.5 ms at 64 on one core, so
# the budget is about 16 s (4 levels) to 50 s (64 levels) per epsilon.
# The README and benchmark sweeps use at most 400.
MAX_PANELS = 100_000

# Widest Filon/Magnus panel for eps >= 0.04 (AdiabaticConfig.panel_width
# reads it at call time); halving it moves the endpoint ||I|| by at most
# 5e-12 at eps 0.01-0.2 on 16 levels, against the tests' bound of 1e-6.
# Above about 0.0107 the degree-6 Taylor step of _magnus_step no longer
# holds its remainder below 2^-53.
PANEL_MAX = 0.01

# Working set of one epsilon's walk, from peak memory measured on one core:
# about 40 N x N complex arrays (36-39 at 256 and 512 levels: the panel
# tables, Pi and its Filon terms, the Magnus step, LAPACK work of the
# sample norms) and about 700 bytes per sample (its interval's panel edges,
# norms and CSV rows; 680 at 40001 samples).
N2_ARRAYS = 40
BYTES_PER_SAMPLE = 700


@dataclass(frozen=True)
class AdiabaticConfig:
    """Adiabatic parameter, output grid and truncation.

    A config whose walk would exceed MAX_PANELS panels, or whose levels and
    samples would exceed the working-set budget, is refused.
    """

    epsilon: float
    s_end: float = 2.0
    n_samples: int = 41
    N: int = 64

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValidationError(f"epsilon must lie in (0, 1], got {self.epsilon!r}")
        if not np.isfinite(self.s_end) or self.s_end <= 0:
            raise ValidationError(f"s_end must be positive and finite, got {self.s_end!r}")
        if self.n_samples < 2:
            raise ValidationError("need at least two samples")
        if self.N < 2:
            raise ValidationError("need at least two levels")
        check_working_set(16 * N2_ARRAYS * self.N ** 2 + BYTES_PER_SAMPLE * self.n_samples,
                          f"{self.N} levels and {self.n_samples} samples")
        # the budget comes first: it bounds the spacing from above, so the
        # square below cannot overflow
        if self.panels > MAX_PANELS:
            raise ValidationError(f"epsilon {self.epsilon:g} up to s_end {self.s_end:g} "
                                  f"over {self.n_samples} samples needs "
                                  f"{self.panels:.3g} panels, above the budget of "
                                  f"{MAX_PANELS}")
        # a panel's quadratic Filon coefficient divides by 2 c^2, with c the
        # panel half-width (at most half the sample spacing); once c^2 is
        # subnormal the rounding noise over it overflows, and inf times the
        # underflowed moment c^3 turns the panel into nan
        spacing = self.s_end / (self.n_samples - 1)
        if not (0.5 * spacing) ** 2 >= np.finfo(float).tiny:
            raise ValidationError(f"sample spacing {spacing:.3g} is too fine: the "
                                  f"squared panel half-width is not a normal double")

    @property
    def panel_width(self):
        """Widest Filon/Magnus panel: min(PANEL_MAX, epsilon/4)."""
        return min(PANEL_MAX, self.epsilon / 4.0)

    @property
    def panels(self):
        """Panels of the walk over the sample grid: _interval_panels of its
        intervals, summed; inf when a count overflows."""
        total = _interval_panels(np.diff(self.s_grid), self.panel_width).sum()
        return int(total) if total < math.inf else math.inf

    @property
    def s_grid(self):
        return np.linspace(0.0, self.s_end, self.n_samples)


def _interval_panels(lengths, width):
    """Equal panels no wider than ``width`` over each interval of
    ``lengths``, at least one, as floats; inf where a subnormal or zero
    width overflows the count.  A linspace grid leaves ulp noise in its
    lengths, so an interval that is a whole number of panels to within
    rounding does not gain one.  The noise differs between intervals, so
    a count is taken per interval, never from the nominal spacing."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.maximum(1.0, np.ceil(lengths / width * (1.0 - 1e-12)))


def unitarity_defect(m):
    """||M^H M - id||_2, the largest |eigenvalue| of that hermitian matrix."""
    gram = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def phase_integrals(s, N, epsilon):
    """Theta_n(s)/eps with Theta_n = (2n+1) s + s^2 (analytic family)."""
    n = np.arange(N)
    return ((2 * n + 1) * s + s * s) / epsilon


def _u_ad(s, N, epsilon):
    """U_ad(s) = diag exp(-i Theta_n(s)/eps), the adiabatic propagator."""
    return np.diag(np.exp(-1j * phase_integrals(s, N, epsilon)))


def _moments(omega, c):
    """int_{-c}^{c} tau^k e^{i omega tau} dtau for k = 0, 1, 2."""
    w = omega * c
    small = np.abs(w) < 1e-6
    ws = np.where(small, 1.0, omega)
    sin, cos = np.sin(w), np.cos(w)
    m0 = np.where(small, 2.0 * c, 2.0 * sin / ws)
    m1 = np.where(small, 0.0 + 0j, 2j * (sin - w * cos) / ws ** 2)
    m2 = np.where(small, 2.0 * c ** 3 / 3.0,
                  2.0 * ((w * w - 2.0) * sin + 2.0 * w * cos) / ws ** 3)
    return m0, m1, m2


def _mirrored(table, parity):
    """A table on d = 0..N-1 extended to d = 1-N..N-1 by table(-d) =
    parity * table(d), so that gathered N x N forms are exactly symmetric
    (parity 1) or antisymmetric (parity -1) whatever the rounding of the
    functions evaluated on it."""
    return np.concatenate((parity * table[:0:-1], table))


def _panel_integrals(config, stops):
    """Yields (a, b, integral of W, Magnus-2 term) per panel of the walk
    over ``stops``, where W(s) = exp(2i(m-n)s/eps) Pi_mn(s).

    ``stops`` is any ascending sequence of times; each interval between
    consecutive stops is split into _interval_panels equal panels no wider
    than config.panel_width (the count AdiabaticConfig.panels sums over
    the sample grid), so every stop is a panel edge and propagation
    can halt there.  The quadratic model of Pi uses the panel endpoints and
    midpoint against the exact oscillatory moments
    int tau^k exp(i omega tau) dtau (omega = 2(m-n)/eps).

    The Magnus-2 term is
    Omega_2 = -(1/2) int_a^b int_a^{s1} [W(s1), W(s2)] ds2 ds1
    with Pi frozen at the midpoint; because the phase frequencies add
    along index chains (w_mk + w_kn = w_mn) the double integral reduces
    to Hadamard/matrix products per panel.

    Pi = i R is purely imaginary with R real antisymmetric, and the
    moments split as m0, m2 real and even in omega, m1 = i mu1 with mu1
    odd, so all arithmetic before the phase is real: the Filon integral is
    -beta_R o mu1 + i (R o m0 + gamma_R o m2), and Omega_2 takes the three
    real products X = R (R o nu), Y1 = (R o m0)(R o cos(omega c) nu) and
    Y2 = (R o m0)(R o sin(omega c) nu), nu = 1/omega (0 at omega = 0);
    Y1 and Y2 come from one product against their right factors side by
    side.  Every table is built with its parity in d, so the integral comes out
    exactly hermitian and Omega_2 exactly anti-hermitian.

    Moments, phases and commutator factors depend on (m, n) only through
    d = m - n, so they are evaluated on the N values d >= 0, mirrored and
    gathered by one index array.  All panels of one interval share their
    half-width c, so the moment tables (with the factors -1/(2c), 1/(2c^2)
    and the -1/2 of Omega_2 folded in) are built once per interval; a panel
    itself costs 2N sines and cosines (its phase) plus the products.
    """
    N = config.N
    n = np.arange(N)
    omega_k = 2.0 * n / config.epsilon
    by_d = n[:, None] - n[None, :] + (N - 1)
    with np.errstate(divide="ignore"):
        half_nu = _mirrored(np.where(omega_k != 0.0, -0.5 / omega_k, 0.0), -1)
    counts = _interval_panels(np.diff(stops), config.panel_width).tolist()
    pf, curv, work, x_mat, y1_sym = (np.empty((N, N)) for _ in range(5))
    right, y = np.empty((N, 2 * N)), np.empty((N, 2 * N))
    y1, y2 = y[:, :N], y[:, N:]
    r_right = np.ascontiguousarray(pi_matrix(stops[0], N).imag)
    for start, stop, count in zip(stops[:-1], stops[1:], counts):
        edges = np.linspace(start, stop, int(count) + 1)
        c = 0.5 * (edges[-1] - edges[0]) / (edges.size - 1)
        m0, m1, m2 = _moments(omega_k, c)
        m0_t = _mirrored(m0, 1)[by_d]
        mu1_t = _mirrored(m1.imag * (-0.5 / c), -1)[by_d]
        m2_t = _mirrored(m2 / (2.0 * c * c), 1)[by_d]
        nu_t = half_nu[by_d]
        cos_nu = (_mirrored(np.cos(omega_k * c), 1) * half_nu)[by_d]
        sin_nu = (_mirrored(np.sin(omega_k * c), -1) * half_nu)[by_d]
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            ra = r_right
            rm = np.ascontiguousarray(pi_matrix(mid, N).imag)
            rb = np.ascontiguousarray(pi_matrix(b, N).imag)
            r_right = rb
            arg = omega_k * mid
            phase = (_mirrored(np.cos(arg), 1) + 1j * _mirrored(np.sin(arg), -1))[by_d]
            # phase o [(rb - ra) o mu1_t + i (rm o m0 + (ra + rb - 2 rm) o m2_t)]
            block = np.empty((N, N), dtype=complex)
            np.subtract(rb, ra, out=block.real)
            block.real *= mu1_t
            np.add(ra, rb, out=curv)
            np.multiply(rm, 2.0, out=work)
            curv -= work
            curv *= m2_t
            np.multiply(rm, m0_t, out=pf)
            np.add(pf, curv, out=block.imag)
            block *= phase
            # phase o [(Y2^T - Y2) + i (m0 o (X + X^T) - (Y1 + Y1^T))], whose
            # factor -1/2 sits in the nu tables
            np.multiply(rm, nu_t, out=work)
            np.matmul(rm, work, out=x_mat)
            np.multiply(rm, cos_nu, out=right[:, :N])
            np.multiply(rm, sin_nu, out=right[:, N:])
            np.matmul(pf, right, out=y)
            np.add(x_mat, x_mat.T, out=work)
            work *= m0_t
            np.add(y1, y1.T, out=y1_sym)
            omega2 = np.empty((N, N), dtype=complex)
            np.subtract(work, y1_sym, out=omega2.imag)
            np.subtract(y2.T, y2, out=omega2.real)
            omega2 *= phase
            yield a, b, block, omega2


def _propagate(config, stops=None):
    """Yields (s, I, C) at each of ``stops`` (default: the sample grid),
    from I = 0 and C = id at the first stop: the walk sums the panel
    integrals of W into I, in panel order, and advances C by their Magnus
    steps.  Yielded arrays are never written afterwards.  StepFailure
    guards the unitarity drift of the last C."""
    stops = config.s_grid if stops is None else stops
    acc = np.zeros((config.N, config.N), dtype=complex)
    c = np.eye(config.N, dtype=complex)
    yield float(stops[0]), acc, c
    sample_at = set(stops[1:].tolist())
    for _, b, block, omega2 in _panel_integrals(config, stops):
        acc = acc + block
        c = _magnus_step(block, omega2) @ c
        if b in sample_at:
            yield float(b), acc, c
    defect = unitarity_defect(c)
    if defect > 1e-8:
        raise StepFailure(f"corrector unitarity defect {defect:.2e}")


def twisted_coupling_integral(config):
    """I(s) = integral_0^s U_ad^(-1) Pi U_ad and its norm curve on the grid.

    Returns (matrices at the sample points, norms).  The walk also
    advances C, so its StepFailure guard applies.
    """
    mats = [i_mat for _, i_mat, _ in _propagate(config)]
    norms = np.array([np.linalg.norm(m, 2) for m in mats])
    return mats, norms


def dyson_corrector(config):
    """Corrector C on the sample grid: i dC/ds = -W C, C(0) = id.

    Returns the list of N x N arrays from the Magnus-Filon panel walk;
    StepFailure guards unitarity drift.
    """
    return [c for _, _, c in _propagate(config)]


def _magnus_step(block, omega2):
    """exp(i int W + Omega_2) by its Taylor polynomial of degree 6.

    The polynomial is evaluated Paterson-Stockmeyer style as
    (I + G + G^2/2 + G^3/6) + G^3 (G/24 + G^2/120 + G^3/720): three
    products, no solve.  ||Pi_N(s)||_2 <= pi/2 for every N and s, so a
    panel of width h <= PANEL_MAX has ||G||_2 <= about h pi/2 = 0.0157,
    and the remainder theta^7/7! ~ 5e-17 lies below half an ulp of the
    identity.  The step is not unitary by construction: its drift is
    rounding, which the StepFailure gate of _propagate guards.
    """
    gen = 1j * block + omega2
    gen2 = gen @ gen
    gen3 = gen2 @ gen
    # tail = G/24 + G^2/120 + G^3/720, head = G + G^2/2 + G^3/6
    tail = gen3 * (1.0 / 6.0)
    tail += gen2
    tail *= 1.0 / 5.0
    tail += gen
    tail *= 1.0 / 24.0
    step = gen3 @ tail
    head = gen3                 # G^3 is spent
    head *= 1.0 / 3.0
    head += gen2
    head *= 0.5
    head += gen
    step += head
    step.reshape(-1)[::gen.shape[0] + 1] += 1.0
    return step


@dataclass(frozen=True)
class SweepResult:
    epsilons: np.ndarray
    s_grid: np.ndarray
    norm_twisted: np.ndarray        # (n_eps, n_s)
    norm_c_minus_id: np.ndarray
    norm_uw_minus_uad: np.ndarray
    unitarity_defect: np.ndarray    # (n_eps,) worst over the grid
    exponents: Optional[dict]
    panels: np.ndarray              # (n_eps,) Filon/Magnus panels walked


def run_sweep(epsilons, s_end, N, n_samples):
    """Full epsilon sweep with fitted scaling exponents at s_end.

    The three tracked quantities are ||I(s)||, ||C - id|| and
    ||U_w - U_ad||; their endpoint values are fitted as power laws in
    epsilon when at least two epsilons are given.  One panel walk per
    epsilon gives I and C; at each sample U_w = U_ad C is formed from C,
    and only the norms and the unitarity defects of C and U_w are kept.
    """
    if len(set(epsilons)) != len(epsilons):
        raise ValidationError(f"epsilons must be distinct, got {list(epsilons)!r}")
    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    # every epsilon is validated (panel budget included) before any walk
    configs = [AdiabaticConfig(epsilon=float(eps), s_end=s_end, n_samples=n_samples, N=N)
               for eps in epsilons]
    nt, nc, nw, ud, panels = [], [], [], [], []
    s_grid = None
    ident = np.eye(N)
    for cfg in configs:
        s_grid = cfg.s_grid
        norms_i, norms_c, norms_w, defects_c, defects_w = [], [], [], [], []
        for s, i_mat, c in _propagate(cfg):
            u = _u_ad(s, N, cfg.epsilon)
            u_w = u @ c
            norms_i.append(np.linalg.norm(i_mat, 2))
            norms_c.append(np.linalg.norm(c - ident, 2))
            norms_w.append(np.linalg.norm(u_w - u, 2))
            defects_c.append(unitarity_defect(c))
            defects_w.append(unitarity_defect(u_w))
        nt.append(norms_i)
        nc.append(norms_c)
        nw.append(norms_w)
        ud.append(max(max(defects_c), max(defects_w)))
        panels.append(cfg.panels)
    nt, nc, nw = np.asarray(nt), np.asarray(nc), np.asarray(nw)
    exponents = None
    if epsilons.size >= 2:
        exponents = {}
        for name, arr in (("twisted_integral", nt), ("corrector_minus_id", nc),
                          ("uw_minus_uad", nw)):
            # sup over the grid: the endpoint alone carries the fast phase
            # exp(2i(m-n)s_end/eps) whose alignment jumps with eps, while
            # the curve maximum tracks the eps-scaling cleanly
            peak = np.max(arr, axis=1)
            if np.all(peak > 0):
                slope = np.polyfit(np.log(epsilons), np.log(peak), 1)[0]
                exponents[name] = float(slope)
            else:
                exponents[name] = float("nan")
    return SweepResult(epsilons=epsilons, s_grid=s_grid, norm_twisted=nt,
                       norm_c_minus_id=nc, norm_uw_minus_uad=nw,
                       unitarity_defect=np.asarray(ud), exponents=exponents,
                       panels=np.asarray(panels))
