"""Adiabatic propagator, Dyson corrector and their error scaling.

All propagators are matrices in the moving eigenbasis of the analytic
family, truncated to N levels.  There the adiabatic propagator is the
pure phase

    U_ad(s) = diag exp(-(i/eps) Theta_n(s)),
    Theta_n(s) = integral_0^s E_n = (2n+1) s + s^2,

and the corrector solves i dC/ds = -W(s) C with the twisted coupling
W(s) = U_ad^(-1) Pi U_ad, whose entries carry the pure phases
exp(2i(m-n)s/eps) (the s^2 parts of the phase integrals cancel in the
differences).  C lives in the fixed initial basis; U_w = U_ad C.

Time stepping never resolves the 1/eps phases by brute force: each panel
integral of W uses a quadratic (Filon) model of the slowly varying Pi
against exact oscillatory moments, and C advances by the exponential of
that panel integral (a first-order Magnus step, unitary to rounding via
the hermitian eigendecomposition).  Panel size is tied to eps only mildly
(h <= eps/4) to keep the commutator remainder of the Magnus step
negligible; halving checks are built in.

On the N-level truncation U_ad satisfies its own generator identity
exactly and U_w satisfies i eps dU_w/ds = H U_w identically (the corrector
construction closes in finite dimensions), so the residual curves
returned by residual_generator_check measure finite differencing plus
truncation bookkeeping, not a mathematical gap; they are reported, not
asserted small.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from .errors import GridTooCoarse, StepFailure, ValidationError
from .spectral import pi_matrix

DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025)


@dataclass(frozen=True)
class AdiabaticConfig:
    """Adiabatic parameter, output grid, truncation and panel control."""

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

    @property
    def s_grid(self):
        return np.linspace(0.0, self.s_end, self.n_samples)


@dataclass(frozen=True)
class PropagatorMatrix:
    """N x N matrix in the moving eigenbasis at time s."""

    s: float
    M: np.ndarray
    kind: str

    def unitarity_defect(self):
        """||M^H M - id||_2, the largest |eigenvalue| of that hermitian matrix."""
        n = self.M.shape[0]
        gram = self.M.conj().T @ self.M - np.eye(n)
        return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def phase_integrals(s, N, epsilon):
    """Theta_n(s)/eps with Theta_n = (2n+1) s + s^2 (analytic family)."""
    n = np.arange(N)
    return ((2 * n + 1) * s + s * s) / epsilon


def u_ad(config):
    """Adiabatic propagator sequence on the sample grid (diagonal phases)."""
    out = []
    for s in config.s_grid:
        phases = np.exp(-1j * phase_integrals(s, config.N, config.epsilon))
        out.append(PropagatorMatrix(s=float(s), M=np.diag(phases), kind="U_ad"))
    return out


def _pi_at(config, s):
    """Coupling Pi(s) on the truncation, or zero under the test hook."""
    if config.force_zero_coupling:
        return np.zeros((config.N, config.N), dtype=complex)
    return pi_matrix(s, config.N).P


class _FilonPanels:
    """Panel integrals of W(s) = exp(2i(m-n)s/eps) Pi_mn(s).

    The quadratic model of Pi uses the panel endpoints and midpoint against
    the exact oscillatory moments int tau^k exp(i omega tau) dtau
    (omega = 2(m-n)/eps).  ``stops`` is any ascending sequence of times;
    each interval between consecutive stops is split into equal panels no
    wider than min(panel_max, eps/4), so every stop is a panel edge and
    propagation can halt there.

    Moments, phases and commutator factors depend on (m, n) only through
    d = m - n, so they are evaluated on the 2N-1 values of d and gathered
    by one index array.  All panels of one interval share their half-width
    c, so the moment tables are built once per interval; a panel itself
    costs 2N-1 exponentials (its phase) plus the matrix products.
    """

    def __init__(self, config, stops):
        self.config = config
        width = min(config.panel_max, config.epsilon / 4.0)
        self.intervals = []
        for a, b in zip(stops[:-1], stops[1:]):
            # a linspace grid leaves ulp noise in b - a; an interval that is
            # a whole number of panels to within rounding must not gain one
            per = max(1, int(np.ceil((b - a) / width * (1.0 - 1e-12))))
            self.intervals.append(np.linspace(a, b, per + 1))
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

    def panel_integrals(self, with_commutator=False):
        """Yields (a, b, integral of W, [Magnus-2 term]) per panel.

        The optional second element is
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
            if with_commutator:
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
                if not with_commutator:
                    yield a, b, block
                    continue
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


def twisted_coupling_integral(config, check_refinement=True):
    """I(s) = integral_0^s U_ad^(-1) Pi U_ad and its norm curve on the grid.

    Returns (matrices at the sample points, norms).  With
    ``check_refinement`` the number of panels is doubled and the endpoint
    norm compared; a change above 1e-6 raises GridTooCoarse.
    """
    mats, norms = _accumulate_integral(config)
    if check_refinement:
        fine = replace(config, panel_max=config.panel_max / 2.0)
        _, norms_fine = _accumulate_integral(fine)
        if abs(norms_fine[-1] - norms[-1]) > 1e-6:
            raise GridTooCoarse(
                f"twisted integral norm moved {abs(norms_fine[-1]-norms[-1]):.2e} "
                f"under panel halving")
    return mats, norms


def _accumulate_integral(config):
    panels = _FilonPanels(config, config.s_grid)
    acc = np.zeros((config.N, config.N), dtype=complex)
    mats = [acc.copy()]
    sample_at = set(config.s_grid[1:].tolist())
    for a, b, block in panels.panel_integrals():
        acc = acc + block
        if b in sample_at:
            mats.append(acc.copy())
    norms = np.array([np.linalg.norm(m, 2) for m in mats])
    return mats, norms


def dyson_corrector(config, check_refinement=False):
    """Corrector sequence: i dC/ds = -W C, C(0) = id, via Magnus-Filon panels.

    Each step is exp(i * panel integral of W), made exactly unitary through
    the hermitian eigendecomposition; StepFailure guards unitarity drift,
    GridTooCoarse (optional) guards panel-halving stability at s_end.
    """
    seq = _corrector_sequence(config)
    if check_refinement:
        ref = _corrector_sequence(replace(config, panel_max=config.panel_max / 2.0))
        drift = np.linalg.norm(seq[-1].M - ref[-1].M, 2)
        if drift > 1e-6:
            raise GridTooCoarse(f"corrector moved {drift:.2e} under panel halving")
    return seq


def _corrector_sequence(config, stops=None):
    """C at each of the ascending ``stops`` (default: the sample grid),
    starting from C = id at the first stop."""
    stops = config.s_grid if stops is None else stops
    panels = _FilonPanels(config, stops)
    c = np.eye(config.N, dtype=complex)
    out = [PropagatorMatrix(s=float(stops[0]), M=c.copy(), kind="C")]
    sample_at = set(stops[1:].tolist())
    for a, b, block, omega2 in panels.panel_integrals(with_commutator=True):
        c = _magnus_step(block, omega2) @ c
        if b in sample_at:
            out.append(PropagatorMatrix(s=float(b), M=c.copy(), kind="C"))
    defect = out[-1].unitarity_defect()
    if defect > 1e-8:
        raise StepFailure(f"corrector unitarity defect {defect:.2e}")
    return out


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


def u_weak(config, uad_seq, corrector_seq):
    """U_w = U_ad C on matching grids, with the difference-norm curve."""
    if len(uad_seq) != len(corrector_seq):
        raise ValidationError("propagator grids do not match")
    out = []
    diff = []
    for ua, c in zip(uad_seq, corrector_seq):
        if abs(ua.s - c.s) > 1e-12:
            raise ValidationError("propagator grids do not match")
        m = ua.M @ c.M
        out.append(PropagatorMatrix(s=ua.s, M=m, kind="U_w"))
        diff.append(np.linalg.norm(m - ua.M, 2))
    return out, np.asarray(diff)


def residual_generator_check(config, probes=None, delta=1e-6):
    """Finite-difference residuals of the generator identities.

    Per probe time returns
      r_ad = || i eps d_s U_ad - (H + eps Pi) U_ad ||   (identity; measures
              differencing error) and
      r_w  = || i eps d_s U_w - H U_w ||                (identity on the
              truncation; reported for documentation).
    The d_s includes the moving-frame connection -i Pi M.
    """
    if probes is None:
        probes = config.s_grid[1:-1:max(1, (config.n_samples - 2) // 8)]
    probes = np.asarray(probes, dtype=float)
    n = np.arange(config.N)
    eps = config.epsilon

    def uad_matrix(s):
        return np.diag(np.exp(-1j * phase_integrals(s, config.N, eps)))

    stops = np.unique(np.concatenate([[0.0], probes - delta, probes, probes + delta]))
    corrector = {p.s: p.M for p in _corrector_sequence(config, stops)}
    res_ad, res_w = [], []
    for s in probes:
        pim = _pi_at(config, s)
        h = np.diag((2.0 * n + 2.0 * s + 1.0).astype(complex))
        up, um, u0 = uad_matrix(s + delta), uad_matrix(s - delta), uad_matrix(s)
        cp, cm, c0 = corrector[s + delta], corrector[s - delta], corrector[s]
        du_ad = (up - um) / (2 * delta)
        r_ad = 1j * eps * (du_ad - 1j * pim @ u0) - (h + eps * pim) @ u0
        mw_p, mw_m, mw_0 = up @ cp, um @ cm, u0 @ c0
        dmw = (mw_p - mw_m) / (2 * delta)
        r_w = 1j * eps * (dmw - 1j * pim @ mw_0) - h @ mw_0
        res_ad.append(np.linalg.norm(r_ad, 2))
        res_w.append(np.linalg.norm(r_w, 2))
    return probes, np.asarray(res_ad), np.asarray(res_w)


@dataclass(frozen=True)
class SweepResult:
    epsilons: np.ndarray
    s_grid: np.ndarray
    norm_twisted: np.ndarray        # (n_eps, n_s)
    norm_c_minus_id: np.ndarray
    norm_uw_minus_uad: np.ndarray
    unitarity_defect: np.ndarray    # (n_eps,) worst over the grid
    exponents: Optional[dict]


def run_sweep(epsilons=DEFAULT_EPSILONS, s_end=2.0, N=64, n_samples=41,
              force_zero_coupling=False, check_refinement=False):
    """Full epsilon sweep with fitted scaling exponents at s_end.

    The three tracked quantities are ||I(s)||, ||C - id|| and
    ||U_w - U_ad||; their endpoint values are fitted as power laws in
    epsilon when at least two epsilons are given.
    """
    if len(set(epsilons)) != len(epsilons):
        raise ValidationError(f"epsilons must be distinct, got {list(epsilons)!r}")
    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    nt, nc, nw, ud = [], [], [], []
    s_grid = None
    for eps in epsilons:
        cfg = AdiabaticConfig(epsilon=float(eps), s_end=s_end, n_samples=n_samples,
                              N=N, force_zero_coupling=force_zero_coupling)
        s_grid = cfg.s_grid
        _, norms_i = twisted_coupling_integral(cfg, check_refinement=check_refinement)
        c_seq = dyson_corrector(cfg, check_refinement=check_refinement)
        ua_seq = u_ad(cfg)
        uw_seq, diff = u_weak(cfg, ua_seq, c_seq)
        ident = np.eye(N)
        nc.append([np.linalg.norm(c.M - ident, 2) for c in c_seq])
        nt.append(norms_i)
        nw.append(diff)
        ud.append(max(max(p.unitarity_defect() for p in c_seq),
                      max(p.unitarity_defect() for p in uw_seq)))
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
                       unitarity_defect=np.asarray(ud), exponents=exponents)
