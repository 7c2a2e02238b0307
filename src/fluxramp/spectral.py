"""Spectral family of the radial operator at flux value s.

The operator on L^2((0,inf), r dr) is

    H(s) = -(1/r) d/dr (r d/dr) + (s + r^2/2)^2 / r^2,   s >= 0,

with the regular boundary behavior psi ~ r^s at the origin.  In the
variable x = r^2/2 the normalized eigenfunctions are weighted Laguerre
functions

    chi_n(x) = x^(s/2) e^(-x/2) lag_n(x),
    lag_n = sqrt(n!/Gamma(n+s+1)) L_n^(s),     E_n(s) = 2n + 2s + 1,

which this module treats as the primary representation; an independent
finite-difference eigensolver acts as the oracle for both eigenvalues and
eigenfunctions.  Quadrature uses Golub-Welsch nodes for the weight
x^s e^(-x), carried entirely through the normalized eigenvector matrix of
the Jacobi operator, so no overflowing weight or polynomial value is ever
formed.

The inter-level coupling Pi(s) = i sum_n (d_s P_n) P_n has, in this basis,

    Pi_mn = i <chi_m, d_s H chi_n> / (E_n - E_m)
          = i * s * <chi_m, chi_n / x> / (2 (n - m)),   m != n,

and <chi_m, chi_n/x> evaluates in closed form through the Laguerre
connection L_n^s = sum_k L_k^(s-1):

    s * <chi_m, chi_n/x> = Gamma(s+1) u_m u_n sum_{k<=min(m,n)} (s)_k / k!,
    u_j = sqrt(j!/Gamma(j+s+1)),

where (s)_k is the rising factorial.  The sum equals (s+1)_j/j! with
j = min(m, n), so the entry reduces to u_{max(m,n)}/u_{min(m,n)} times the gap
factor, a product of sqrt(k/(k+s)) <= 1.  The closed form stays finite as
s -> 0+ (limit i/(2(n-m))): the operator domain moves with s, so the
coupling does not vanish with d_s H -> 1.  Both the quadrature route and
the closed form are kept; they are compared in the tests and against an
extended-precision derivative of the exact eigenfunctions.

A note on norms: truncated ||Pi(s)|| decreases with s at fixed truncation
(the ((m+1)/(n+1))^(s/2) envelope suppresses every entry), while the
truncation limit is pi/2 for every s >= 0, because far out on the diagonal
the envelope tends to 1.  An increasing majorant M(s) therefore exists
trivially, but the measured norms themselves are not increasing in s.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import gammaln

from .errors import DegenerateGap, GridTooCoarse, ValidationError

DEFAULT_LEVELS = 64


@dataclass(frozen=True)
class SectorParams:
    """Flux value s >= 0, retained levels N, quadrature size."""

    s: float
    N: int = DEFAULT_LEVELS
    quad_size: Optional[int] = None

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s < 0:
            raise ValidationError(f"flux parameter s must be >= 0, got {self.s!r}")
        if self.N < 2:
            raise ValidationError("at least two levels are required")
        if self.quad_size is None:
            object.__setattr__(self, "quad_size", 2 * self.N + 16)
        if self.quad_size < self.N + 1:
            raise ValidationError("quadrature size must exceed the level count")


def gauss_weight_nodes(alpha, size):
    """Golub-Welsch data for the weight x^alpha e^(-x) on (0, inf).

    Returns (nodes, qmat) where qmat[k, i] = sqrt(w_i) * p_k(x_i) for the
    orthonormal polynomials p_k with positive leading coefficient; the
    rows stay O(1) for any size, unlike raw weights and polynomial values.
    """
    if alpha <= -1:
        raise ValidationError("Gauss weight requires alpha > -1")
    k = np.arange(size)
    diag = 2 * k + alpha + 1.0
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    nodes, vec = eigh_tridiagonal(diag, off)
    # orient columns by the first component; it underflows to zero at far
    # nodes, where the orientation is immaterial (products cancel the sign)
    s0 = np.sign(vec[0:1, :])
    vec = vec * np.where(s0 != 0.0, s0, 1.0)
    return nodes, vec.T.copy()  # qmat[i, k]: node i, polynomial order k


@dataclass(frozen=True)
class SpectralFamily:
    """Eigendata of H(s) on the retained levels.

    ``qchi[n, i]`` equals sqrt(w_i) * lag_n(x_i) in the sign convention
    "coefficient of L_n^(s) positive", so that inner products
    <chi_m, g chi_n> are plain weighted sums; no level changes sign along
    an s-sweep in this convention.
    """

    s: float
    N: int
    energies: np.ndarray
    nodes: np.ndarray
    qchi: np.ndarray

    def inner_matrix(self, g_nodes):
        """Matrix <chi_m, g chi_n> for g given by its values on the nodes."""
        return (self.qchi * g_nodes[None, :]) @ self.qchi.T

    def eval_chi(self, x):
        """chi_n(x) on an arbitrary positive grid, stable weighted recurrence."""
        return _weighted_laguerre(self.s, self.N, np.asarray(x, dtype=float))

    def eval_psi(self, r):
        """Radial eigenfunctions psi_n(r) = chi_n(r^2/2), L^2(r dr)-normalized."""
        return self.eval_chi(0.5 * np.asarray(r, dtype=float) ** 2)


def _weighted_laguerre(s, N, x):
    """Rows n = 0..N-1 of x^(s/2) e^(-x/2) lag_n(x); bounded for all x >= 0."""
    x = np.atleast_1d(x)
    out = np.zeros((N, x.size))
    with np.errstate(divide="ignore"):
        logw = np.where(x > 0, 0.5 * s * np.log(np.where(x > 0, x, 1.0)), 0.0)
    w0 = np.exp(logw - 0.5 * x - 0.5 * gammaln(s + 1))
    if s > 0:
        w0 = np.where(x > 0, w0, 0.0)
    out[0] = w0
    if N > 1:
        out[1] = (x - (s + 1.0)) * out[0] / np.sqrt(1.0 * (1.0 + s))
        for k in range(1, N - 1):
            out[k + 1] = ((x - (2 * k + s + 1.0)) * out[k]
                          - np.sqrt(k * (k + s)) * out[k - 1]) / np.sqrt((k + 1) * (k + 1 + s))
    # Jacobi recurrence generates positive-leading polynomials (-1)^n lag_n.
    return out * ((-1.0) ** np.arange(N))[:, None]


def analytic_spectrum(params):
    """Closed-form family: E_n = 2n + 2s + 1 and weighted Laguerre modes.

    The finite-difference oracle fd_spectrum exists precisely to validate
    these formulas; see the tests and the acceptance suite.
    """
    s, N, Q = params.s, params.N, params.quad_size
    nodes, qall = gauss_weight_nodes(s, Q)
    qchi = qall[:, :N].T * ((-1.0) ** np.arange(N))[:, None]
    return SpectralFamily(s=s, N=N, energies=2.0 * np.arange(N) + 2.0 * s + 1.0,
                          nodes=nodes, qchi=qchi)


def _dx_quadrature(alpha, size):
    """Nodes and plain-measure folds for integrating products of weighted
    Laguerre-type functions against dx.

    For f, g containing the factor x^(alpha/2) e^(-x/2), the integral
    int f g dx equals sum_i fold_i^2 f(x_i) g(x_i) with
    fold_i = sqrt(w_i) x_i^(-alpha/2) e^(x_i/2)
           = 1 / sqrt(sum_k W_k(x_i)^2),
    the Christoffel sum of the weighted orthonormal functions W_k, which
    the recurrence produces with O(1) magnitudes (no raw weight or
    polynomial value, hence no under/overflow at far nodes).
    """
    k = np.arange(size)
    nodes = eigh_tridiagonal(2 * k + alpha + 1.0,
                             np.sqrt(k[1:] * (k[1:] + alpha)),
                             eigvals_only=True)
    w = _weighted_laguerre(alpha, size, nodes)
    fold = 1.0 / np.sqrt(np.sum(w * w, axis=0))
    return nodes, fold


def overlap_diag(fam_a, fam_b):
    """<chi_n(s_a), chi_n(s_b)> per level, exact mixed-weight quadrature."""
    if fam_a.N != fam_b.N:
        raise ValidationError("families must retain the same level count")
    alpha = 0.5 * (fam_a.s + fam_b.s)
    size = max(fam_a.nodes.size, fam_b.nodes.size)
    nodes, fold = _dx_quadrature(alpha, size)
    ca = fam_a.eval_chi(nodes) * fold[None, :]
    cb = fam_b.eval_chi(nodes) * fold[None, :]
    return np.sum(ca * cb, axis=1)


@dataclass(frozen=True)
class CouplingMatrix:
    """Truncated Pi(s) in the moving eigenbasis: hermitian, zero diagonal."""

    s: float
    P: np.ndarray


@functools.lru_cache(maxsize=None)
def _pi_gaps(N):
    """The gap factor i/(2(n-m)) of the closed form, zero diagonal (read-only)."""
    n = np.arange(N)
    gap = np.zeros((N, N), dtype=complex)
    off = n[:, None] != n[None, :]
    gap[off] = 1j / (2.0 * (n[None, :] - n[:, None]))[off]
    gap.setflags(write=False)
    return gap


def _pi_closed(s, N):
    """Closed-form Pi entries (w_{max(m,n)} / w_{min(m,n)}) i/(2(n-m)), where

        w_n = sqrt(Gamma(s+1)) u_n = prod_{k<=n} sqrt(k/(k+s))

    decreases from w_0 = 1.  The form w_m w_n sum_{k<=min(m,n)} (s)_k/k!
    collapses to this ratio through sum_{k<=j} (s)_k/k! = (s+1)_j/j! = 1/w_j^2,
    so every entry is at most 1/(2|n-m|) and none overflows for any s; the
    one-sided limit at s = 0 needs no special case.  The running product
    w_n^2 underflows once s is large against N (s > 1.9e6 at 64 levels,
    s > 1.3e4 at 128); the ratios then come from the running sum of log w_n,
    exact to about |log w_n| ulp instead of a few ulp.
    """
    gap = _pi_gaps(N)
    k = np.arange(1.0, N)
    w2 = np.concatenate(([1.0], np.cumprod(k / (k + s))))
    if w2[-1] >= np.finfo(float).tiny:
        w = np.sqrt(w2)
        ratio = np.minimum.outer(w, w) / np.maximum.outer(w, w)
    else:
        log_w = np.concatenate(([0.0], np.cumsum(-0.5 * np.log1p(s / k))))
        ratio = np.exp(np.minimum.outer(log_w, log_w) - np.maximum.outer(log_w, log_w))
    return ratio * gap


def pi_matrix(s, N):
    """Fast closed-form coupling matrix (validated against quadrature and
    an extended-precision eigenfunction derivative in the tests)."""
    return CouplingMatrix(s=s, P=_pi_closed(s, N))


def coupling_matrix(family):
    """Pi of an analytic family, <chi_m, d_sH chi_n> / (E_n - E_m) in the
    closed form of pi_matrix, behind a guard against degenerate gaps."""
    gaps = np.diff(family.energies)
    if np.any(np.abs(gaps) < 1e-12):
        raise DegenerateGap("eigenvalue gap below 1e-12")
    return pi_matrix(family.s, family.N)


@dataclass(frozen=True)
class CouplingNormEstimate:
    truncations: np.ndarray
    norms: np.ndarray
    extrapolated: float


def coupling_norm(matrix, truncations):
    """Spectral norms of leading principal submatrices plus extrapolation.

    The extrapolation assumes geometric decay of successive differences
    (Richardson style); with fewer than three truncations the last norm is
    returned unextrapolated.
    """
    truncs = np.asarray(sorted(truncations), dtype=int)
    if truncs[-1] > matrix.P.shape[0]:
        raise ValidationError("truncation exceeds matrix size")
    norms = np.array([np.linalg.norm(matrix.P[:t, :t], 2) for t in truncs])
    if truncs.size >= 3:
        d1, d2 = norms[-2] - norms[-3], norms[-1] - norms[-2]
        if d1 != 0.0 and 0.0 < d2 / d1 < 1.0:
            ratio = d2 / d1
            extrap = norms[-1] + d2 * ratio / (1.0 - ratio)
        else:
            extrap = norms[-1]
    else:
        extrap = norms[-1]
    return CouplingNormEstimate(truncations=truncs, norms=norms, extrapolated=float(extrap))


def empirical_m_table(s_grid, N, truncations=None):
    """Norm data of Pi over an s-grid: per-s truncation norms, extrapolation,
    and the running-maximum majorant (the smallest nondecreasing table
    dominating the measurements)."""
    if truncations is None:
        truncations = [N // 4, N // 2, N]
    rows = []
    running = 0.0
    for s in s_grid:
        est = coupling_norm(pi_matrix(s, N), truncations)
        running = max(running, est.extrapolated)
        rows.append({"s": float(s), "norms": est.norms.tolist(),
                     "extrapolated": est.extrapolated, "majorant": running})
    return rows


def gamma_potential(matrix, family):
    """Gamma with i[H, Gamma] = Pi on the truncation: Gamma_mn = -i Pi_mn/(E_m - E_n)."""
    energy = family.energies
    gaps = energy[:, None] - energy[None, :]
    if np.any(np.abs(gaps + np.eye(family.N)) < 1e-12):
        raise DegenerateGap("eigenvalue gap below 1e-12")
    n = np.arange(family.N)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = -1j * matrix.P / gaps
    g[n, n] = 0.0
    return g


def commutator_residual(gamma, matrix, family):
    """|| i [diag(E), Gamma] - Pi ||, zero by construction up to rounding."""
    h = np.diag(family.energies.astype(complex))
    return float(np.linalg.norm(1j * (h @ gamma - gamma @ h) - matrix.P, 2))


@dataclass(frozen=True)
class KernelBoundResult:
    s: float
    bound: float
    norm: float
    refined_norm: float
    extrapolated: float
    refinement_drift: float
    tail_estimate: float
    n_grid: int


# Half-width of the kernel check's u-grid in decay lengths 1/(s + 1/2):
# the truncated kernel tail exp(-36) ~ 2e-16 sits at double rounding.
KERNEL_DECAY_LENGTHS = 36.0


def kernel_bound_check(s, n_grid=2400, refine=True, drift_limit=5e-3):
    """Numerical norm of the comparison integral operator on L^2((0,inf), dx).

    The kernel K(x,y) = -(i/y)(x/y)^s for x < y and (i/x)(y/x)^s for x > y
    is homogeneous of degree -1; the unitary substitution x = e^u maps it
    to the convolution kernel i sign(u-t) e^(-(s+1/2)|u-t|) on L^2(du),
    whose exact norm is (s+1/2)^(-1).  The discretization is a Nystrom
    trapezoid rule on a uniform u-grid (a hermitian Toeplitz operator
    applied via FFT), so the measured norm approaches the bound from
    below, first order in the step; the reported extrapolation removes
    that leading deficit.  GridTooCoarse fires if doubling the grid moves
    the norm by more than ``drift_limit``.
    """
    if s < 0:
        raise ValidationError("kernel bound requires s >= 0")
    sigma = s + 0.5
    u_halfwidth = KERNEL_DECAY_LENGTHS / sigma
    tail = float(np.exp(-sigma * u_halfwidth))

    def discrete_norm(n):
        u = np.linspace(-u_halfwidth, u_halfwidth, n)
        du = u[1] - u[0]
        col = 1j * np.sign(u - u[0]) * np.exp(-sigma * np.abs(u - u[0])) * du
        emb = np.concatenate([col, [0.0], np.conj(col[1:][::-1])])
        femb = np.fft.fft(emb)

        def matvec(v):
            v = np.asarray(v, dtype=complex).ravel()
            padded = np.concatenate([v, np.zeros(n, dtype=complex)])
            return np.fft.ifft(np.fft.fft(padded) * femb)[:n]

        op = LinearOperator((n, n), matvec=matvec, dtype=complex)
        start = np.ones(n) / np.sqrt(n)  # deterministic Lanczos start
        vals = eigsh(op, k=1, which="LM", return_eigenvectors=False, tol=1e-10,
                     v0=start)
        return float(np.abs(vals[0]))

    norm = discrete_norm(n_grid)
    refined = discrete_norm(2 * n_grid) if refine else norm
    drift = abs(refined - norm)
    if refine and drift > drift_limit:
        raise GridTooCoarse(f"kernel norm moved {drift:.2e} under refinement")
    extrapolated = 2.0 * refined - norm if refine else norm
    return KernelBoundResult(s=s, bound=1.0 / sigma, norm=norm, refined_norm=refined,
                             extrapolated=float(extrapolated),
                             refinement_drift=float(drift),
                             tail_estimate=tail, n_grid=n_grid)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

# Absolute bisection tolerance of the oracle eigensolves.  LAPACK's default
# (tol <= 0) stops at ulp * ||T||_1, about 5.7e-9 on a 96k-cell grid of
# 64 levels: larger than the Richardson error the oracle reports, and it
# shifts with the number of levels requested (up to 7e-9 between 32 and 64).
# At 1e-10 the extrapolated error sits at its rounding floor (1e-12 gives
# the same), for 15-25% more bisection time.
FD_BISECTION_TOL = 1e-10

# Cells of the oracle's coarsest grid; its two Richardson partners have 2x
# and 4x as many (12k/24k/48k), and only the finest one computes vectors.
FD_CELLS = 12000


def fd_r_max(s, N):
    """Outer radius of the oracle grid for the N-level family at flux s:
    sqrt(2) times the classical turning radius 2 sqrt(E_{N-1}) of the top
    level, plus 6, where every retained mode has decayed."""
    e_max = 2.0 * (N - 1) + 2.0 * s + 1.0
    return 2.0 * np.sqrt(2.0 * e_max) + 6.0


@dataclass(frozen=True)
class FdSpectrum:
    """Eigendata of the discretized operator (independent of the closed form).

    Energies are Richardson-extrapolated over the steps h, h/2 and h/4
    (fourth order removed); ``energies_coarse`` are the raw energies of the
    h grid.  The grid, mode values, cell masses and step refer to the
    finest (h/4) grid, the only one solved with vectors.  ``g`` holds the
    smooth part of the eigenfunctions, psi_n(r) = r^s g_n(r), normalized so
    that sum(g^2 * mass) = 1, which makes overlaps in L^2(r dr) plain
    weighted dot products.
    """

    s: float
    N: int
    energies: np.ndarray
    energies_coarse: np.ndarray
    r: np.ndarray
    g: np.ndarray
    mass: np.ndarray
    step: float

    def overlaps_with_analytic(self, family):
        """|<psi_n^fd, psi_n^analytic>| for the N solved levels; ``family``
        must retain at least N levels (the first N are compared)."""
        if family.N < self.N:
            raise ValidationError(f"family retains {family.N} levels, "
                                  f"the oracle solved {self.N}")
        # family.eval_chi restricted to the solved rows (the recurrence for
        # row n reads rows below n only)
        chi = _weighted_laguerre(family.s, self.N, 0.5 * self.r ** 2)
        with np.errstate(divide="ignore"):
            g_an = chi * self.r[None, :] ** (-self.s)
        nrm = np.sqrt(np.sum(g_an * g_an * self.mass[None, :], axis=1))
        g_an = g_an / nrm[:, None]
        return np.abs(np.sum(self.g * g_an * self.mass[None, :], axis=1))


def _fd_weights(s, faces, h):
    """Cell masses, their cell averages, the off-diagonal and the diagonal
    less the potential of the finite-volume operator on ``faces`` (step h)."""
    mu_face = faces ** (2 * s + 1)
    mass = np.diff(faces ** (2 * s + 2)) / (2 * s + 2.0)  # integral of mu over cells
    mbar = mass / h
    lower = -mu_face[1:-1] / (h * h * np.sqrt(mbar[:-1] * mbar[1:]))
    kinetic = (mu_face[:-1] + mu_face[1:]) / (h * h * mbar)
    return mass, mbar, lower, kinetic


def fd_grid_representable(s, r_max, m_cells):
    """Whether the finite-volume solve on ``m_cells`` cells over (0, r_max)
    forms only finite, nonzero operator terms in double precision.

    The weights r^(2s+1) span (r_max/h)^(2s+1): with growing s the masses
    underflow next to the origin and r_max^(2s+2) overflows at the outer
    face.  Every term is monotone in the cell index, so the two end cells
    at each side decide, evaluated with the solve's own arithmetic.
    """
    h = r_max / m_cells
    for first in (0, m_cells - 2):
        with np.errstate(all="ignore"):
            _, _, lower, kinetic = _fd_weights(s, np.arange(first, first + 3) * h, h)
        # a zero mass makes the diagonal non-finite; lower.all(): nonzero
        if not (np.isfinite(kinetic).all() and np.isfinite(lower).all() and lower.all()):
            return False
    return True


def _fd_solve(s, N, r_max, m_cells, eigvals_only=False):
    """Finite-volume eigensolve of -g'' - ((2s+1)/r) g' + (s + r^2/4) g = E g
    in L^2(r^(2s+1) dr), the exact substitution psi = r^s g of the radial
    operator.  g is smooth and even, so the scheme is cleanly O(h^2) for
    every s >= 0; the vanishing inner face flux enforces the regular
    behavior automatically.

    Returns the lowest N energies, and with ``eigvals_only`` false also the
    modes, cell centers, cell masses and step.  The energies are the same
    bits either way: LAPACK bisects them out (stebz) before any inverse
    iteration for the vectors (stein).  A grid that fails
    fd_grid_representable raises ValidationError before any work.
    """
    if not fd_grid_representable(s, r_max, m_cells):
        raise ValidationError(
            f"flux s = {s:g} leaves the double range of the finite-volume "
            f"weights r^(2s+1) on {m_cells} cells over (0, {r_max:.6g})")
    h = r_max / m_cells
    centers = (np.arange(m_cells) + 0.5) * h
    mass, mbar, lower, kinetic = _fd_weights(s, np.arange(m_cells + 1) * h, h)
    diag = kinetic + (s + 0.25 * centers ** 2)
    solved = eigh_tridiagonal(diag, lower, eigvals_only=eigvals_only, select="i",
                              select_range=(0, N - 1), tol=FD_BISECTION_TOL)
    if eigvals_only:
        return solved
    energies, vec = solved
    g = vec.T / np.sqrt(mbar)[None, :]
    g = g / np.sqrt(np.sum(g * g * mass[None, :], axis=1))[:, None]
    # orient like the analytic modes: positive value near the origin times (-1)^0;
    # the analytic g_n(0) has the sign of L_n^s(0) > 0, so demand g(first cells) > 0
    lead = np.sign(np.sum(g[:, : max(4, m_cells // 256)], axis=1))
    lead[lead == 0] = 1.0
    g = g * lead[:, None]
    return energies, g, centers, mass, h


def _richardson(e_h, e_h2, e_h4):
    """Three-level Richardson value of energies on the steps h, h/2, h/4.

    The raw error is c2 h^2 + c4 h^4 + ...; R(h) = (4 E(h/2) - E(h))/3
    removes the h^2 term, and (16 R(h/2) - R(h))/15 the h^4 term.
    """
    r_h = (4.0 * e_h2 - e_h) / 3.0
    r_h2 = (4.0 * e_h4 - e_h2) / 3.0
    return (16.0 * r_h2 - r_h) / 15.0


def fd_spectrum(params, r_max=None, m_cells=None, check_refinement=False):
    """Independent eigensolve of the lowest ``params.N`` levels of the radial
    operator on uniform grids over (0, r_max), the coarsest of ``m_cells``
    cells (default FD_CELLS).

    ``r_max`` defaults to fd_r_max(s, N), the grid of the N-level family; a
    caller that checks only the lower levels of a larger family passes that
    family's radius and solves no more levels than it compares.  Three-level
    Richardson extrapolation over the steps (h, h/2, h/4), see _richardson,
    removes the O(h^2) and O(h^4) errors; with ``check_refinement`` a fourth
    solve at h/8 verifies that the value from (h/2, h/4, h/8) agrees to 1e-6,
    raises GridTooCoarse otherwise, and is returned.  Only the h/4 solve
    computes eigenvectors (the overlaps, second order in h); the others feed
    eigenvalues alone.  Every solve bisects to the absolute tolerance
    FD_BISECTION_TOL.  The closed form sets the default grid extent only; no
    closed-form value is used as a shift or a bracket.
    """
    s, N = params.s, params.N
    if r_max is None:
        r_max = fd_r_max(s, N)
    if m_cells is None:
        m_cells = FD_CELLS
    e_h = _fd_solve(s, N, r_max, m_cells, eigvals_only=True)
    e_h2 = _fd_solve(s, N, r_max, 2 * m_cells, eigvals_only=True)
    e_h4, g, centers, mass, h4 = _fd_solve(s, N, r_max, 4 * m_cells)
    extrap = _richardson(e_h, e_h2, e_h4)
    if check_refinement:
        e_h8 = _fd_solve(s, N, r_max, 8 * m_cells, eigvals_only=True)
        extrap_fine = _richardson(e_h2, e_h4, e_h8)
        if np.max(np.abs(extrap_fine - extrap)) > 1e-6:
            raise GridTooCoarse(
                f"extrapolated eigenvalues moved "
                f"{np.max(np.abs(extrap_fine - extrap)):.2e} under refinement x2")
        extrap = extrap_fine
    return FdSpectrum(s=s, N=N, energies=extrap, energies_coarse=e_h,
                      r=centers, g=g, mass=mass, step=h4)
