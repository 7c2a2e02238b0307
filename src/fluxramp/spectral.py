"""Spectral family of the radial operator at flux value s.

The operator on L^2((0,inf), r dr) is

    H(s) = -(1/r) d/dr (r d/dr) + (s + r^2/2)^2 / r^2,   s >= 0,

with the regular boundary behavior psi ~ r^s at the origin.  In the
variable x = r^2/2 the normalized eigenfunctions are weighted Laguerre
functions

    chi_n(x) = x^(s/2) e^(-x/2) lag_n(x),
    lag_n = sqrt(n!/Gamma(n+s+1)) L_n^(s),     E_n(s) = 2n + 2s + 1,

which this module treats as the primary representation: every mode value
comes from the stable recurrence of _weighted_laguerre.  An independent
finite-difference eigensolver acts as the oracle for both eigenvalues and
eigenfunctions.

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
coupling does not vanish with d_s H -> 1.  The tests compare the closed
form with a plain Gauss-Laguerre quadrature and with an extended-precision
derivative of the exact eigenfunctions.

A note on norms: truncated ||Pi(s)|| decreases with s at fixed truncation
(the ((m+1)/(n+1))^(s/2) envelope suppresses every entry), while the
truncation limit is pi/2 for every s >= 0, because far out on the diagonal
the envelope tends to 1.  An increasing majorant M(s) therefore exists
trivially, but the measured norms themselves are not increasing in s.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NumericalFailure, ValidationError, check_working_set

DEFAULT_LEVELS = 64


@dataclass(frozen=True)
class SectorParams:
    """Flux value s >= 0 and retained levels N; N is refused above the
    working-set budget of the family's checks (2228 levels), s once the top
    energy 2N + 2s - 1 reaches 2^53, past which energies round together."""

    s: float
    N: int = DEFAULT_LEVELS

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s < 0:
            raise ValidationError(f"flux parameter s must be >= 0, got {self.s!r}")
        if self.N < 2:
            raise ValidationError("at least two levels are required")
        check_working_set(ORACLE_BYTES_PER_LEVEL * self.N
                          + DENSE_BYTES_PER_ENTRY * self.N ** 2, f"{self.N} levels")
        if self.s >= 2.0 ** 52 - self.N + 0.5:  # E_{N-1} = 2N + 2s - 1 >= 2^53
            raise ValidationError(f"flux parameter s = {self.s:g} at {self.N} levels: the "
                                  f"energies 2n + 2s + 1 reach 2^53 and round together")


@dataclass(frozen=True)
class SpectralFamily:
    """Eigendata of H(s) on the retained levels; the modes are the rows
    of _weighted_laguerre(s, N, x)."""

    s: float
    N: int
    energies: np.ndarray


def _weighted_laguerre(s, N, x):
    """Rows n = 0..N-1 of x^(s/2) e^(-x/2) lag_n(x), one at a time (the
    recurrence holds the last two, so a caller must not write into a row);
    bounded for all x >= 0.

    Modes are in the sign convention "coefficient of L_n^(s) positive", in
    which no level changes sign along an s-sweep.

    Where the start value x^(s/2) e^(-x/2) / sqrt(Gamma(s+1)) underflows
    (past x of about 1420 at s = 1, where modes from about level 350 have
    their outer lobe), the recurrence starts at 1 and carries that log per
    point, moving 1e150 of the rows into it whenever one passes 1e150;
    where no start value underflows, no scale is carried.
    """
    from scipy.special import gammaln
    x = np.atleast_1d(x)
    with np.errstate(divide="ignore"):
        log_start = np.where(x > 0, 0.5 * s * np.log(np.where(x > 0, x, 1.0)), 0.0)
    # in place, so the generator holds no more rows than without the scale
    log_start -= 0.5 * x
    log_start -= 0.5 * gammaln(s + 1)
    prev = np.exp(log_start)
    if s > 0:
        prev = np.where(x > 0, prev, 0.0)
    under = (log_start < np.log(np.finfo(float).tiny)) & (x > 0)
    weight = None
    if np.any(under):
        log_scale = np.where(under, log_start, 0.0)
        prev = np.where(under, 1.0, prev)
        weight = np.exp(log_scale)

    def scaled(row):  # reads the weight current at the yield
        return row if weight is None else row * weight
    yield scaled(prev)
    if N > 1:
        # the Jacobi recurrence generates the positive-leading (-1)^n lag_n
        row = (x - (s + 1.0)) * prev / np.sqrt(1.0 * (1.0 + s))
        yield scaled(-row)
        for k in range(1, N - 1):
            prev, row = row, ((x - (2 * k + s + 1.0)) * row
                              - np.sqrt(k * (k + s)) * prev) / np.sqrt((k + 1) * (k + 1 + s))
            if weight is not None and np.max(np.abs(row)) > 1e150:
                big = np.abs(row) > 1e150
                prev[big] *= 1e-150
                row[big] *= 1e-150
                log_scale[big] += np.log(1e150)
                weight = np.exp(log_scale)
            yield scaled(-row if k % 2 == 0 else row)


def analytic_spectrum(params):
    """Closed-form family: E_n = 2n + 2s + 1 and weighted Laguerre modes.

    The finite-difference oracle fd_spectrum exists precisely to validate
    these formulas; see the tests and the acceptance suite.
    """
    s, N = params.s, params.N
    return SpectralFamily(s=s, N=N, energies=2.0 * np.arange(N) + 2.0 * s + 1.0)


@functools.lru_cache(maxsize=None)
def _pi_gaps(N):
    """The gap factor i/(2(n-m)) of the closed form, zero diagonal (read-only)."""
    n = np.arange(N)
    gap = np.zeros((N, N), dtype=complex)
    off = n[:, None] != n[None, :]
    gap[off] = 1j / (2.0 * (n[None, :] - n[:, None]))[off]
    gap.setflags(write=False)
    return gap


def pi_matrix(s, N):
    """Truncated Pi(s) in the moving eigenbasis: the hermitian N x N array,
    zero on the diagonal, of the closed-form entries

        Pi_mn = (w_{max(m,n)} / w_{min(m,n)}) i/(2(n-m)),   where

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


def pi_derivative(s, N):
    """d_s Pi(s) in closed form.  Pi_mn depends on s only through
    log w_n = -(1/2) sum_{k<=n} log(1 + s/k), so

        d_s Pi_mn = -(1/2) (H_max(m,n) - H_min(m,n)) Pi_mn,   H_j = sum_{k<=j} 1/(k+s),

    hermitian and zero on the diagonal like Pi, finite for every s."""
    k = np.arange(1.0, N)
    harm = np.concatenate(([0.0], np.cumsum(1.0 / (k + s))))
    return -0.5 * np.abs(np.subtract.outer(harm, harm)) * pi_matrix(s, N)


def coupling_matrix(family):
    """Pi of an analytic family, <chi_m, d_sH chi_n> / (E_n - E_m) in the
    closed form of pi_matrix (the same array)."""
    return pi_matrix(family.s, family.N)


@dataclass(frozen=True)
class CouplingNormEstimate:
    truncations: np.ndarray
    norms: np.ndarray


def coupling_norm(pi, truncations):
    """Spectral norms of the leading principal submatrices of the given
    sizes, in ascending order.  No limit is extrapolated from them: the
    differences do not fall by a law that holds at every s (the truncation
    limit is pi/2, approached the more slowly the larger s)."""
    truncs = np.asarray(sorted(truncations), dtype=int)
    if truncs[-1] > pi.shape[0]:
        raise ValidationError("truncation exceeds matrix size")
    norms = np.array([np.linalg.norm(pi[:t, :t], 2) for t in truncs])
    return CouplingNormEstimate(truncations=truncs, norms=norms)


def gamma_potential(pi, family):
    """Gamma with i[H, Gamma] = Pi on the truncation: Gamma_mn = -i Pi_mn/(E_m - E_n)."""
    gaps = np.subtract.outer(family.energies, family.energies)
    np.fill_diagonal(gaps, 1.0)
    g = -1j * pi / gaps
    np.fill_diagonal(g, 0.0)
    return g


def commutator_residual(gamma, pi, family):
    """|| i [diag(E), Gamma] - Pi ||, zero by construction up to rounding.

    The commutator does not change when H is shifted, so it is formed with
    E - E_0: the rounding then scales with the gaps, not with E ~ 2s.
    """
    h = np.diag((family.energies - family.energies[0]).astype(complex))
    return float(np.linalg.norm(1j * (h @ gamma - gamma @ h) - pi, 2))


@dataclass(frozen=True)
class KernelBoundResult:
    s: float
    bound: float
    norm: float
    refined_norm: float
    extrapolated: float
    refinement_drift: float
    tail_estimate: float
    grid_points: tuple        # u-grid sizes of the norm and the refined norm
    bisection_probes: tuple   # definiteness tests (dpttrf) made on each grid


# Half-width of the kernel check's u-grid in decay lengths 1/(s + 1/2):
# the truncated kernel tail exp(-36) ~ 2e-16 sits at double rounding.
KERNEL_DECAY_LENGTHS = 36.0

# Points of the kernel check's u-grid (its refinement has twice as many),
# and the largest norm change under that refinement the check accepts.
KERNEL_GRID = 2400
KERNEL_DRIFT_LIMIT = 5e-3


def _toeplitz_kernel_norm(n):
    """Largest eigenvalue of the n x n hermitian Toeplitz matrix
    T = i du (M - M^T), M_ij = rho^(i-j) below the diagonal, on the grid of
    the kernel check at sigma = 1 (du = 2 KERNEL_DECAY_LENGTHS / (n - 1),
    rho = e^(-du)), and the number of definiteness tests spent on it.

    With L = I - rho S (S the lower shift), L T L^T = i du rho (S - S^T), so
    lam lies above the top eigenvalue iff lam L L^T - i du rho (S - S^T) is
    positive definite; a diagonal unitary scaling makes that the real
    tridiagonal matrix with diagonal lam (1 + rho^2) (lam in the first
    entry) and constant off-diagonal rho hypot(lam, du), which one LAPACK
    dpttrf decides in O(n).  Bisection starts from [0, du / sinh(du)], the
    sup of the Toeplitz symbol, stops at a relative width of 4 ulp and
    returns the upper end.  T's spectrum is symmetric about 0, so this is
    its norm; the rounding of the tridiagonal entries, amplified by about
    1/du^2 near the top eigenvector, limits it to a few 1e-13 relative on
    the refined grid.
    """
    from scipy.linalg import lapack
    du = 2.0 * KERNEL_DECAY_LENGTHS / (n - 1)
    rho = np.exp(-du)
    diag, off = np.empty(n), np.empty(n - 1)

    def above_spectrum(lam):
        diag.fill(lam * (1.0 + rho * rho))
        diag[0] = lam
        off.fill(rho * np.hypot(lam, du))
        return lapack.dpttrf(diag, off, overwrite_d=1, overwrite_e=1)[-1] == 0

    lo, hi = 0.0, du / np.sinh(du)
    probes = 0
    while hi - lo > 4.0 * np.finfo(float).eps * hi:
        mid = 0.5 * (lo + hi)
        probes += 1
        if above_spectrum(mid):
            hi = mid
        else:
            lo = mid
    return float(hi), probes


def kernel_bound_check(s):
    """Numerical norm of the comparison integral operator on L^2((0,inf), dx).

    The kernel K(x,y) = -(i/y)(x/y)^s for x < y and (i/x)(y/x)^s for x > y
    is homogeneous of degree -1; the unitary substitution x = e^u maps it
    to the convolution kernel i sign(u-t) e^(-(s+1/2)|u-t|) on L^2(du),
    whose exact norm is (s+1/2)^(-1).  The discretization is a Nystrom
    trapezoid rule on a uniform u-grid of KERNEL_GRID points over
    KERNEL_DECAY_LENGTHS / sigma on each side, sigma = s + 1/2, and on its
    doubling.  Then sigma du does not depend on s, and the discrete operator
    is 1/sigma times the fixed Toeplitz matrix of _toeplitz_kernel_norm,
    whose norm is found by bisection on a tridiagonal definiteness test.

    The norm approaches the bound from below.  The step error is second
    order (the symbol's sup is du/sinh(du) = 1 - du^2/6 + ...), and
    ``extrapolated`` = (4 refined - norm)/3 removes it; what is left is the
    finite domain, O(L^-2) in the half-width L, about 9.25e-4 relative at
    36 decay lengths.  The gate refined_norm <= bound + 1e-6 is therefore
    one-sided: a bound too large by less than that deficit would pass.
    NumericalFailure (a grid too coarse) if the doubling moves the norm by
    more than KERNEL_DRIFT_LIMIT.
    """
    if s < 0:
        raise ValidationError("kernel bound requires s >= 0")
    sigma = s + 0.5
    grid = (KERNEL_GRID, 2 * KERNEL_GRID)
    (norm, coarse_probes), (refined, fine_probes) = map(_toeplitz_kernel_norm, grid)
    norm, refined = norm / sigma, refined / sigma
    drift = abs(refined - norm)
    if drift > KERNEL_DRIFT_LIMIT:
        raise NumericalFailure(f"kernel norm moved {drift:.2e} under refinement")
    return KernelBoundResult(s=s, bound=1.0 / sigma, norm=norm, refined_norm=refined,
                             extrapolated=(4.0 * refined - norm) / 3.0,
                             refinement_drift=drift,
                             tail_estimate=float(np.exp(-KERNEL_DECAY_LENGTHS)),
                             grid_points=grid,
                             bisection_probes=(coarse_probes, fine_probes))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

# Absolute bisection tolerance of the oracle's bisected grid (12k cells),
# the only one that reads no coarser grid.  LAPACK's default (tol <= 0)
# stops at ulp * ||T||_1, about 5.7e-9 on a 96k-cell grid of 64 levels:
# larger than the Richardson error the oracle reports, and it shifts with
# the number of levels requested (up to 7e-9 between 32 and 64).  At 1e-10
# the 12k energies sit at their rounding floor (1e-12 gives the same), for
# 15-25% more bisection time; the finer grids start from them (_fd_refine).
FD_BISECTION_TOL = 1e-10

# Cells of the oracle's coarsest grid; its two Richardson partners have 2x
# and 4x as many (12k/24k/48k).  Only the coarsest is bisected; each finer
# one is refined from the energies of the grid below it (_fd_refine), and
# the finest compares each of its vectors with the closed form as it is
# found.
FD_CELLS = 12000

# Steps of Rayleigh-quotient iteration one mode of the 24k or 48k grid may
# take (_fd_refine); two suffice at 64 levels, three at 128 and 256.
FD_RQI_STEPS = 7

# Working set of the checks of an N-level family.  The oracle streams its
# modes (_fd_refine): it holds about 20 arrays on its finest grid whatever
# the number of levels, 7.24 MiB at 48k cells (tracemalloc, 8 to 128
# levels).  Peak memory of `spectral --s 1 --check all` on one core reads
# 68.9-69.2, 69.0-69.3, 71.0-71.2 and 90.1-90.4 MiB at 64, 128, 256 and
# 512 levels (two runs; 77.8, 89.5, 112.8 and 159.7 while its modes were
# held as one block of 0.183 MiB per level); the growth is the coupling and
# gamma checks, which hold about eight N x N complex arrays.  The per-level
# term below is that block's old estimate, 0.1875 MiB, and now overstates
# the oracle; it stays until the admitted size follows the oracle's
# accuracy law (ROADMAP item 2), so the cap of 2228 levels stands.
ORACLE_BYTES_PER_LEVEL = 3 * 2 ** 20 // 16
DENSE_BYTES_PER_ENTRY = 8 * 16


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
    (fourth order removed).  ``r`` holds the cell centers of the finest
    (h/4) grid and ``overlaps`` |<psi_n^fd, psi_n^analytic>| in L^2(r dr) of
    its modes with the closed-form ones, formed while the modes were solved
    (no mode is kept).  ``rqi_steps`` counts the Rayleigh-quotient steps on
    the h/2 and the h/4 grid.
    """

    s: float
    N: int
    energies: np.ndarray
    r: np.ndarray
    overlaps: np.ndarray
    rqi_steps: tuple

    def overlaps_with_analytic(self, family):
        """|<psi_n^fd, psi_n^analytic>| for the N solved levels; ``family``
        must be at the oracle's s and retain at least N levels (the first N
        are compared)."""
        if family.N < self.N:
            raise ValidationError(f"family retains {family.N} levels, "
                                  f"the oracle solved {self.N}")
        if family.s != self.s:
            raise ValidationError(f"family at s = {family.s:g}, "
                                  f"the oracle solved s = {self.s:g}")
        return self.overlaps


def _fd_weights(s, faces, h):
    """Cell masses, their cell averages, the off-diagonal and the diagonal
    less the potential of the finite-volume operator on ``faces`` (step h)."""
    mu_face = faces ** (2 * s + 1)
    mass = np.diff(faces ** (2 * s + 2)) / (2 * s + 2.0)  # integral of mu over cells
    mbar = mass / h
    lower = -mu_face[1:-1] / (h * h * np.sqrt(mbar[:-1] * mbar[1:]))
    kinetic = (mu_face[:-1] + mu_face[1:]) / (h * h * mbar)
    return mass, mbar, lower, kinetic


def fd_grid_representable(s, r_max, cells):
    """Whether the finite-volume solve on ``cells`` cells over (0, r_max)
    forms only finite, nonzero operator terms in double precision.

    The weights r^(2s+1) span (r_max/h)^(2s+1): with growing s the masses
    underflow next to the origin and r_max^(2s+2) overflows at the outer
    face.  Every term is monotone in the cell index, so the two end cells
    at each side decide, evaluated with the solve's own arithmetic.
    """
    h = r_max / cells
    for first in (0, cells - 2):
        with np.errstate(all="ignore"):
            _, _, lower, kinetic = _fd_weights(s, np.arange(first, first + 3) * h, h)
        # a zero mass makes the diagonal non-finite; lower.all(): nonzero
        if not (np.isfinite(kinetic).all() and np.isfinite(lower).all() and lower.all()):
            return False
    return True


def _fd_operator(s, r_max, cells):
    """The finite-volume operator on ``cells`` cells over (0, r_max) as
    the symmetric tridiagonal (diag, lower) in the mass-scaled unknowns
    sqrt(mbar) g, with the step, cell centers, cell masses, mass densities
    mbar and the potential at the centers.  A grid that fails
    fd_grid_representable raises ValidationError before any work."""
    if not fd_grid_representable(s, r_max, cells):
        raise ValidationError(
            f"flux s = {s:g} leaves the double range of the finite-volume "
            f"weights r^(2s+1) on {cells} cells over (0, {r_max:.6g})")
    h = r_max / cells
    centers = (np.arange(cells) + 0.5) * h
    mass, mbar, lower, kinetic = _fd_weights(s, np.arange(cells + 1) * h, h)
    potential = s + 0.25 * centers ** 2
    return kinetic + potential, lower, h, centers, mass, mbar, potential


def _fd_solve(s, N, r_max, cells):
    """Lowest N energies of the finite-volume discretization of
    -g'' - ((2s+1)/r) g' + (s + r^2/4) g = E g in L^2(r^(2s+1) dr), the
    exact substitution psi = r^s g of the radial operator, bisected (LAPACK
    stebz) to the absolute tolerance FD_BISECTION_TOL.  g is smooth and
    even, so the scheme is cleanly O(h^2) for every s >= 0; the vanishing
    inner face flux enforces the regular behavior automatically.
    """
    diag, lower = _fd_operator(s, r_max, cells)[:2]
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(diag, lower, eigvals_only=True, select="i",
                            select_range=(0, N - 1), tol=FD_BISECTION_TOL)


def _fd_refine(s, r_max, cells, seeds, consumer=None):
    """Eigenpairs of the ``cells`` grid next to the ascending ``seeds`` (the
    energies of the Richardson grid below, its shifts), without bisection:
    Rayleigh-quotient iteration from each seed, then each energy as the
    Rayleigh quotient of its mode g in the positive form

        E = [sum_f mu_f (g_(i+1) - g_i)^2 / h + sum V mass g^2] / sum mass g^2

    over the faces f (mu_f = r_f^(2s+1), zero at the origin; g = 0 past the
    outer face), whose terms do not cancel.  Its error is quadratic in the
    error of the mode, so no bisection tolerance enters: bisection on the
    same grid sits 1e-10 to 5e-10 off (its rounding floor, about
    0.05 ulp * ||T||_1), the quotients much closer.

    A mode starts as the vector of ones at sigma = its seed.  A step solves
    (T - sigma I) b = x (LAPACK gtsv) and sets x = b / ||b|| and sigma to
    the Rayleigh quotient x^T T x.  With c = x_old . x, both come without a
    product with T: T x - sigma x = x_old / ||b|| at the old sigma, so the
    quotient is sigma + c / ||b|| and its residual ||T x - sigma x|| is
    sqrt(1 - c^2) / ||b||.  The iteration stops once that residual is at
    most 64 eps ||T||, or at a zero pivot (sigma an eigenvalue to working
    precision; x is kept), within FD_RQI_STEPS steps.

    Each mode runs to the end before the next one starts, in work vectors
    allocated once: its iteration, the scaling g = x / sqrt(mbar), its
    quotient, the normalization sum(g^2 * mass) = 1 and the orientation
    positive next to the origin (like the analytic g_n(0), with the sign of
    L_n^s(0) > 0).  ``consumer``, if given, is called once with the cell
    centers and masses and returns a function that receives each finished
    mode as (n, g_n); the next mode overwrites g_n.  So the memory is
    O(cells) for any number of seeds.

    Returns the energies, the cell centers and the number of steps (solves)
    taken.  NoConvergence, once every mode has run, when some exhausted
    their steps; NumericalFailure (a grid too coarse) when the seeds or the
    energies do not increase strictly, or an energy lies nearer a
    neighbouring seed than its own, so a seed caught the wrong level.
    """
    if not np.all(np.diff(seeds) > 0):
        raise NumericalFailure(f"Richardson shifts for {cells} cells do not increase")
    from scipy.linalg import lapack
    diag, lower, h, centers, mass, mbar, potential = _fd_operator(s, r_max, cells)
    t_norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(lower))
    tol = 64.0 * np.finfo(float).eps * t_norm
    root_mbar = np.sqrt(mbar, out=mbar)
    v_mass = np.multiply(potential, mass, out=potential)
    face_weight = (np.arange(1, cells + 1) * h) ** (2 * s + 1) / h
    consume = consumer(centers, mass) if consumer else None
    # gtsv overwrites its three bands with the factors and b with the
    # solution, so they are refilled; once a mode's iteration ends, dia
    # holds its differences and b the products of its quotient
    x = np.empty(cells)
    sub, sup = np.empty(cells - 1), np.empty(cells - 1)
    dia, b = np.empty(cells), np.empty(cells)
    lead = slice(0, max(4, cells // 256))
    energies = np.empty(seeds.size)
    steps = unconverged = 0
    for n, sigma in enumerate(seeds):
        x.fill(1.0 / np.sqrt(cells))
        for _ in range(FD_RQI_STEPS):
            steps += 1
            np.copyto(sub, lower)
            np.subtract(diag, sigma, out=dia)
            np.copyto(sup, lower)
            np.copyto(b, x)
            info = lapack.dgtsv(sub, dia, sup, b, overwrite_dl=1, overwrite_d=1,
                                overwrite_du=1, overwrite_b=1)[-1]
            if info > 0:
                break
            norm = np.sqrt(np.dot(b, b))
            cos = np.dot(x, b) / norm
            sigma += cos / norm
            np.multiply(b, 1.0 / norm, out=x)
            if 1.0 - cos * cos <= (tol * norm) ** 2:
                break
        else:
            unconverged += 1
        g = np.divide(x, root_mbar, out=x)
        step = dia
        np.subtract(g[1:], g[:-1], out=step[:-1])
        step[-1] = -g[-1]
        norm2 = np.dot(np.multiply(mass, g, out=b), g)
        energies[n] = (np.dot(np.multiply(face_weight, step, out=b), step)
                       + np.dot(np.multiply(v_mass, g, out=b), g)) / norm2
        g /= np.sqrt(norm2)
        if np.sum(g[lead]) < 0:
            np.negative(g, out=g)
        if consume:
            consume(n, g)
    if unconverged:
        raise NoConvergence(f"Rayleigh-quotient iteration left {unconverged} of "
                            f"{seeds.size} oracle modes unconverged on {cells} cells")
    own = np.abs(energies - seeds)
    if not (np.all(np.diff(energies) > 0)
            and np.all(np.abs(energies[1:] - seeds[:-1]) >= own[1:])
            and np.all(np.abs(energies[:-1] - seeds[1:]) >= own[:-1])):
        raise NumericalFailure(f"oracle energies on {cells} cells do not follow "
                            f"their Richardson shifts")
    return energies, centers, steps


def _richardson(e_h, e_h2, e_h4):
    """Three-level Richardson value of energies on the steps h, h/2, h/4.

    The raw error is c2 h^2 + c4 h^4 + ...; R(h) = (4 E(h/2) - E(h))/3
    removes the h^2 term, and (16 R(h/2) - R(h))/15 the h^4 term.
    """
    r_h = (4.0 * e_h2 - e_h) / 3.0
    r_h2 = (4.0 * e_h4 - e_h2) / 3.0
    return (16.0 * r_h2 - r_h) / 15.0


def fd_spectrum(params, r_max=None):
    """Independent eigensolve of the lowest ``params.N`` levels of the radial
    operator on uniform grids over (0, r_max), the coarsest of FD_CELLS
    cells.

    ``r_max`` defaults to fd_r_max(s, N), the grid of the N-level family; a
    caller that checks only the lower levels of a larger family passes that
    family's radius and solves no more levels than it compares.  Three-level
    Richardson extrapolation over the steps (h, h/2, h/4), see _richardson,
    removes the O(h^2) and O(h^4) errors.  The h grid is bisected to the
    absolute tolerance FD_BISECTION_TOL (_fd_solve).  The h/2 and h/4 grids
    are not bisected but climbed as a ladder: _fd_refine runs
    Rayleigh-quotient iteration on h/2 from the h energies and on h/4 from
    the h/2 energies, and takes the Rayleigh quotients of the modes.  The
    h/4 modes are the oracle's eigenvectors (the overlaps, second order in
    h), each compared with its analytic mode as it is finished.  The closed
    form sets the default grid extent only; no closed-form value is used as
    a shift or a bracket.
    """
    s, N = params.s, params.N
    if r_max is None:
        r_max = fd_r_max(s, N)
    overlaps = np.empty(N)

    def analytic_overlaps(centers, mass):
        # row n of the analytic modes, advanced in lockstep with the
        # oracle's modes and scaled to g like them: psi = r^s g
        with np.errstate(divide="ignore"):
            scale = centers ** (-s)
        rows = _weighted_laguerre(s, N, 0.5 * centers ** 2)

        def overlap(n, g):
            g_n = next(rows) * scale
            weighted = g_n * mass
            overlaps[n] = abs(np.dot(weighted, g)) / np.sqrt(np.dot(weighted, g_n))
        return overlap

    e_h = _fd_solve(s, N, r_max, FD_CELLS)
    e_h2, _, steps_h2 = _fd_refine(s, r_max, 2 * FD_CELLS, e_h)
    e_h4, centers, steps_h4 = _fd_refine(s, r_max, 4 * FD_CELLS, e_h2, analytic_overlaps)
    return FdSpectrum(s=s, N=N, energies=_richardson(e_h, e_h2, e_h4), r=centers,
                      overlaps=overlaps, rqi_steps=(steps_h2, steps_h4))
