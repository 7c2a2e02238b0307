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
that panel integral plus its commutator term (a second-order Magnus step,
made exactly unitary by the diagonal Pade approximant of _magnus_step).
Panel size is tied to eps only mildly (h <= eps/4) to keep the remainder
of the Magnus step negligible; twisted_coupling_integral checks panel
halving.  The twisted integral I(s) is the running sum of the same panel
integrals, so one walk over the panels yields I and C together.

On the N-level truncation U_ad satisfies its own generator identity
exactly and U_w satisfies i eps dU_w/ds = H U_w identically (the corrector
construction closes in finite dimensions); the tests' finite-difference
residuals of both identities measure differencing, not a mathematical gap.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from .errors import GridTooCoarse, StepFailure, ValidationError, check_working_set
from .spectral import pi_matrix

DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025)

# Most Filon/Magnus panels one epsilon may walk (AdiabaticConfig.panels):
# a panel costs about 0.17 ms at 4 levels and 1.4 ms at 64 on one core, so
# the budget is about 17 s (4 levels) to 2.5 min (64 levels) per epsilon.
# The README and benchmark sweeps use at most 400.
MAX_PANELS = 100_000

# Working set of one epsilon's walk, from peak memory measured on one core:
# about 40 N x N complex arrays (36-39 at 256 and 512 levels: the panel
# tables, Pi and its Filon terms, the Magnus step, LAPACK work of the
# sample norms) and about 700 bytes per sample (its interval's panel edges,
# norms and CSV rows; 680 at 40001 samples).
N2_ARRAYS = 40
BYTES_PER_SAMPLE = 700


@dataclass(frozen=True)
class AdiabaticConfig:
    """Adiabatic parameter, output grid, truncation and panel control.

    A config whose walk would exceed MAX_PANELS panels, or whose levels and
    samples would exceed the working-set budget, is refused.
    """

    epsilon: float
    s_end: float = 2.0
    n_samples: int = 41
    N: int = 64
    panel_max: float = 0.01
    force_zero_coupling: bool = False

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
        # a panel's quadratic Filon coefficient divides by 2 c^2, with c the
        # panel half-width (at most half the sample spacing); once c^2 is
        # subnormal the rounding noise over it overflows, and inf times the
        # underflowed moment c^3 turns the panel into nan
        spacing = self.s_end / (self.n_samples - 1)
        if not (0.5 * spacing) ** 2 >= np.finfo(float).tiny:
            raise ValidationError(f"sample spacing {spacing:.3g} is too fine: the "
                                  f"squared panel half-width is not a normal double")
        if self.panels > MAX_PANELS:
            raise ValidationError(f"epsilon {self.epsilon:g} up to s_end {self.s_end:g} "
                                  f"over {self.n_samples} samples needs "
                                  f"{self.panels:.3g} panels, above the budget of "
                                  f"{MAX_PANELS}")

    @property
    def panel_width(self):
        """Widest Filon/Magnus panel: min(panel_max, epsilon/4)."""
        return min(self.panel_max, self.epsilon / 4.0)

    @property
    def panels(self):
        """Panels of the walk over the sample grid, in closed form: each of
        the n_samples - 1 intervals takes _interval_panels of its spacing."""
        spacing = self.s_end / (self.n_samples - 1)
        return (self.n_samples - 1) * _interval_panels(spacing, self.panel_width)

    @property
    def s_grid(self):
        return np.linspace(0.0, self.s_end, self.n_samples)


def _interval_panels(length, width):
    """Equal panels no wider than ``width`` over an interval of ``length``,
    at least one; inf when a subnormal or zero width overflows the count.
    A linspace grid leaves ulp noise in the length, so an interval that is
    a whole number of panels to within rounding does not gain one."""
    quotient = length / width * (1.0 - 1e-12) if width > 0 else math.inf
    return max(1, math.ceil(quotient)) if quotient < math.inf else math.inf


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


def _pi_at(config, s):
    """Coupling Pi(s) on the truncation, or zero under the test hook."""
    if config.force_zero_coupling:
        return np.zeros((config.N, config.N), dtype=complex)
    return pi_matrix(s, config.N)


class _FilonPanels:
    """Panel integrals of W(s) = exp(2i(m-n)s/eps) Pi_mn(s).

    The quadratic model of Pi uses the panel endpoints and midpoint against
    the exact oscillatory moments int tau^k exp(i omega tau) dtau
    (omega = 2(m-n)/eps).  ``stops`` is any ascending sequence of times
    (default: the sample grid); each interval between consecutive stops is
    split into equal panels no wider than min(panel_max, eps/4), so every
    stop is a panel edge and propagation can halt there.  ``count`` is the
    number of panels the walk integrates.

    Moments, phases and commutator factors depend on (m, n) only through
    d = m - n, so they are evaluated on the 2N-1 values of d and gathered
    by one index array.  All panels of one interval share their half-width
    c, so the moment tables are built once per interval; a panel itself
    costs 2N-1 exponentials (its phase) plus the matrix products.
    """

    def __init__(self, config, stops=None):
        self.config = config
        self.stops = config.s_grid if stops is None else stops
        width = config.panel_width
        self.intervals = []
        for a, b in zip(self.stops[:-1], self.stops[1:]):
            self.intervals.append(np.linspace(a, b, _interval_panels(b - a, width) + 1))
        # panel_integrals skips an edge pair that rounding collapsed
        self.count = sum(int(np.count_nonzero(np.diff(edges) > 0))
                         for edges in self.intervals)
        n = np.arange(config.N)
        self.omega_d = 2.0 * np.arange(1 - config.N, config.N) / config.epsilon
        self.by_d = n[:, None] - n[None, :] + (config.N - 1)

    @staticmethod
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

    def panel_integrals(self):
        """Yields (a, b, integral of W, Magnus-2 term) per panel.

        The Magnus-2 term is
        Omega_2 = -(1/2) int_a^b int_a^{s1} [W(s1), W(s2)] ds2 ds1
        with Pi frozen at the midpoint; because the phase frequencies add
        along index chains (w_mk + w_kn = w_mn) the double integral reduces
        to Hadamard/matrix products per panel, and since every factor
        is hermitian, two of the four products are adjoints of the others.
        """
        omega_d, by_d = self.omega_d, self.by_d
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_iw_d = np.where(omega_d != 0.0, 1.0 / (1j * omega_d), 0.0)
        inv_iw = inv_iw_d[by_d]
        pi_right = _pi_at(self.config, self.intervals[0][0])
        for edges in self.intervals:
            c = 0.5 * (edges[-1] - edges[0]) / (edges.size - 1)
            m0, m1, m2 = (m[by_d] for m in self._moments(omega_d, c))
            e_iw = (np.exp(-1j * omega_d * c) * inv_iw_d)[by_d]
            for a, b in zip(edges[:-1], edges[1:]):
                if b <= a:
                    continue
                mid = 0.5 * (a + b)
                pa = pi_right
                pm = _pi_at(self.config, mid)
                pb = _pi_at(self.config, b)
                pi_right = pb
                beta = (pb - pa) / (2.0 * c)
                gamma = (pa + pb - 2.0 * pm) / (2.0 * c * c)
                phase = np.exp(1j * omega_d * mid)[by_d]
                block = phase * (pm * m0 + beta * m1 + gamma * m2)
                # D(alpha_f, beta_f) = e^{i(alpha_f+beta_f) mid}
                #                      [F(alpha_f+beta_f) - e^{-i beta_f c} F(alpha_f)]
                #                      / (i beta_f),  F = m0 above.
                # sum_k Pi Pi [D(w_mk, w_kn) - D(w_kn, w_mk)] splits into
                #   F(w_mn) * [Pi @ pw - pw @ Pi]  -  pf @ pe  +  pe @ pf
                # with pf = Pi F, pw = Pi/(iw), pe = Pi e^{-iwc}/(iw) entrywise;
                # all four are hermitian, so pw @ Pi = (Pi @ pw)^H and
                # pe @ pf = (pf @ pe)^H.
                pf = pm * m0
                x = pm @ (pm * inv_iw)
                y = pf @ (pm * e_iw)
                dd = m0 * (x - x.conj().T) - (y - y.conj().T)
                omega2 = -0.5 * phase * dd
                yield a, b, block, omega2


def _propagate(panels):
    """Yields (s, I, C) at each stop of the ``panels`` walk, from I = 0 and
    C = id at the first stop: the walk sums the panel integrals of W into
    I, in panel order, and advances C by their Magnus steps.  Yielded
    arrays are never written afterwards.  StepFailure guards the unitarity
    drift of the last C."""
    config, stops = panels.config, panels.stops
    acc = np.zeros((config.N, config.N), dtype=complex)
    c = np.eye(config.N, dtype=complex)
    yield float(stops[0]), acc, c
    sample_at = set(stops[1:].tolist())
    for _, b, block, omega2 in panels.panel_integrals():
        acc = acc + block
        c = _magnus_step(block, omega2) @ c
        if b in sample_at:
            yield float(b), acc, c
    defect = unitarity_defect(c)
    if defect > 1e-8:
        raise StepFailure(f"corrector unitarity defect {defect:.2e}")


def twisted_coupling_integral(config, check_refinement=True):
    """I(s) = integral_0^s U_ad^(-1) Pi U_ad and its norm curve on the grid.

    Returns (matrices at the sample points, norms).  With
    ``check_refinement`` the number of panels is doubled and the endpoint
    norm compared; a change above 1e-6 raises GridTooCoarse.  The walk also
    advances C, so its StepFailure guard applies.  The refined config, which
    may exceed the panel budget, is validated before either walk.
    """
    if check_refinement:
        fine = replace(config, panel_max=config.panel_max / 2.0)
    mats = [i_mat for _, i_mat, _ in _propagate(_FilonPanels(config))]
    norms = np.array([np.linalg.norm(m, 2) for m in mats])
    if check_refinement:
        _, norms_fine = twisted_coupling_integral(fine, check_refinement=False)
        if abs(norms_fine[-1] - norms[-1]) > 1e-6:
            raise GridTooCoarse(
                f"twisted integral norm moved {abs(norms_fine[-1]-norms[-1]):.2e} "
                f"under panel halving")
    return mats, norms


def dyson_corrector(config):
    """Corrector C on the sample grid: i dC/ds = -W C, C(0) = id.

    Returns the list of N x N arrays from the Magnus-Filon panel walk;
    each step is exactly unitary, and StepFailure guards unitarity drift.
    """
    return [c for _, _, c in _propagate(_FilonPanels(config))]


def _magnus_step(block, omega2):
    """exp(i int W + Omega_2) by the diagonal Pade (2,2) approximant.

    The generator is anti-hermitian (enforced against rounding), so
    numerator and denominator are adjoints of each other and commute,
    making the approximant exactly unitary; the Pade error O(||Omega||^5)
    sits far below the Magnus truncation for the panel sizes in use.
    """
    gen = 1j * 0.5 * (block + block.conj().T) + 0.5 * (omega2 - omega2.conj().T)
    gen2 = gen @ gen
    ident = np.eye(gen.shape[0], dtype=complex)
    num = ident + 0.5 * gen + gen2 / 12.0
    den = ident - 0.5 * gen + gen2 / 12.0
    return np.linalg.solve(den, num)


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


def run_sweep(epsilons=DEFAULT_EPSILONS, s_end=2.0, N=64, n_samples=41,
              force_zero_coupling=False):
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
    configs = [AdiabaticConfig(epsilon=float(eps), s_end=s_end, n_samples=n_samples,
                               N=N, force_zero_coupling=force_zero_coupling)
               for eps in epsilons]
    nt, nc, nw, ud, panels = [], [], [], [], []
    s_grid = None
    ident = np.eye(N)
    for cfg in configs:
        s_grid = cfg.s_grid
        norms_i, norms_c, norms_w, defects_c, defects_w = [], [], [], [], []
        walk = _FilonPanels(cfg)
        for s, i_mat, c in _propagate(walk):
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
        panels.append(walk.count)
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
