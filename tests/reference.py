"""Reference computations that only the tests use.

Mode evaluation, an exact Gauss-type quadrature for mode overlaps, the
geometric extrapolation and running-maximum table of coupling norms, the
Bessel kernel factor, homogeneous part and homogeneous-constant match of
the reduced equations, a zero nonlinearity and a zero coupling for the
exactly solvable limits of ``reduced`` and ``adiabatic``, the
finite-difference residuals of the adiabatic generator identities, and a
CSV writer that formats each float by ``%``.
The package computes none of these on a CLI path; the tests use them as
independent checks of ``spectral``, ``reduced``, ``adiabatic`` and the
CLI's CSV text.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from fluxramp import adiabatic, reduced, spectral
from fluxramp.errors import ValidationError


def _stacked_modes(s, N, x):
    """The N rows of spectral._weighted_laguerre as one (N, x.size) array."""
    return np.array(list(spectral._weighted_laguerre(s, N, np.asarray(x, dtype=float))))


def eval_chi(family, x):
    """chi_n(x) of ``family`` on an arbitrary positive grid, stable weighted
    recurrence."""
    return _stacked_modes(family.s, family.N, x)


def eval_psi(family, r):
    """Radial eigenfunctions psi_n(r) = chi_n(r^2/2), L^2(r dr)-normalized."""
    return eval_chi(family, 0.5 * np.asarray(r, dtype=float) ** 2)


def dx_quadrature(alpha, size):
    """Nodes and plain-measure folds for integrating products of weighted
    Laguerre-type functions against dx.

    For f, g containing the factor x^(alpha/2) e^(-x/2), the integral
    int f g dx equals sum_i fold_i^2 f(x_i) g(x_i) with
    fold_i = sqrt(w_i) x_i^(-alpha/2) e^(x_i/2)
           = 1 / sqrt(sum_k W_k(x_i)^2),
    the Christoffel sum of the weighted orthonormal functions W_k, which
    the recurrence produces with O(1) magnitudes (no raw weight or
    polynomial value, hence no under/overflow at far nodes).  The nodes
    are the Golub-Welsch eigenvalues of the Jacobi matrix.
    """
    k = np.arange(size)
    nodes = eigh_tridiagonal(2 * k + alpha + 1.0,
                             np.sqrt(k[1:] * (k[1:] + alpha)),
                             eigvals_only=True)
    w = _stacked_modes(alpha, size, nodes)
    fold = 1.0 / np.sqrt(np.sum(w * w, axis=0))
    return nodes, fold


def overlap_diag(fam_a, fam_b):
    """<chi_n(s_a), chi_n(s_b)> per level, exact mixed-weight quadrature."""
    if fam_a.N != fam_b.N:
        raise ValidationError("families must retain the same level count")
    nodes, fold = dx_quadrature(0.5 * (fam_a.s + fam_b.s), 2 * fam_a.N + 16)
    ca = eval_chi(fam_a, nodes) * fold[None, :]
    cb = eval_chi(fam_b, nodes) * fold[None, :]
    return np.sum(ca * cb, axis=1)


def geometric_extrapolation(norms):
    """Limit of a sequence of truncated norms, assuming its successive
    differences fall geometrically (Richardson style); the last norm when
    there are fewer than three or the last two differences do not shrink
    with one sign.  The law is not the coupling norms' own: against the
    limit pi/2 it reads 1.5762, 1.5627 and 1.7320 at 64 levels for s = 0, 1
    and 7, and 9.06 at 16 levels for s = 7."""
    if len(norms) >= 3:
        d1, d2 = norms[-2] - norms[-3], norms[-1] - norms[-2]
        if d1 != 0.0 and 0.0 < d2 / d1 < 1.0:
            ratio = d2 / d1
            return float(norms[-1] + d2 * ratio / (1.0 - ratio))
    return float(norms[-1])


def empirical_m_table(s_grid, N, truncations=None):
    """Norm data of Pi over an s-grid: per-s truncation norms, their
    geometric extrapolation, and the running-maximum majorant (the smallest
    nondecreasing table dominating the extrapolations)."""
    if truncations is None:
        truncations = [N // 4, N // 2, N]
    rows = []
    running = 0.0
    for s in s_grid:
        norms = spectral.coupling_norm(spectral.pi_matrix(s, N), truncations).norms
        extrapolated = geometric_extrapolation(norms)
        running = max(running, extrapolated)
        rows.append({"s": float(s), "norms": norms.tolist(),
                     "extrapolated": extrapolated, "majorant": running})
    return rows


def kernel_factor(j, s, tau):
    """Y_{j-1}(s) J_1(tau) - J_{j-1}(s) Y_1(tau); at tau = s this equals
    2/(pi s) for j = 1 (cylinder Wronskian) and 0 for j = 2."""
    return (reduced.bessel_y(j - 1, s) * reduced.bessel_j(1, tau)
            - reduced.bessel_j(j - 1, s) * reduced.bessel_y(1, tau))


def match_constants_at(s, x1, x2):
    """Solve the 2x2 system giving (c1, c2) of the homogeneous part that
    passes through (x1, x2) at time s;  determinant is the Wronskian
    -2 s / pi, never zero."""
    a = np.array([[s * reduced.bessel_j(0, s), s * reduced.bessel_y(0, s)],
                  [s * reduced.bessel_j(1, s), s * reduced.bessel_y(1, s)]])
    return tuple(np.linalg.solve(a, np.array([x1, x2])))


def homogeneous(j, s, c1, c2):
    """c1 s J_{j-1}(s) + c2 s Y_{j-1}(s) for j in {1, 2}."""
    if j not in (1, 2):
        raise ValidationError("component index j must be 1 or 2")
    return c1 * s * reduced.bessel_j(j - 1, s) + c2 * s * reduced.bessel_y(j - 1, s)


def zero_f(s, x1, x2, phi):
    """F = 0 in place of ``reduced.f_nonlinearity``: the fixed point of the
    integral equations is then their homogeneous part.  Zeros shaped like
    ``s`` for array input, 0.0 for a float, as the ODE right-hand side
    passes."""
    return np.zeros_like(s) if isinstance(s, np.ndarray) else 0.0


def zero_pi(s, N):
    """Pi = 0 in place of ``adiabatic.pi_matrix``: the corrector is then C = id."""
    return np.zeros((N, N), dtype=complex)


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

    stops = np.unique(np.concatenate([[0.0], probes - delta, probes, probes + delta]))
    corrector = {s: c for s, _, c in adiabatic._propagate(config, stops)}
    res_ad, res_w = [], []
    for s in probes:
        pim = adiabatic.pi_matrix(s, config.N)
        h = np.diag((2.0 * n + 2.0 * s + 1.0).astype(complex))
        up, um, u0 = (adiabatic._u_ad(t, config.N, eps) for t in (s + delta, s - delta, s))
        cp, cm, c0 = corrector[s + delta], corrector[s - delta], corrector[s]
        du_ad = (up - um) / (2 * delta)
        r_ad = 1j * eps * (du_ad - 1j * pim @ u0) - (h + eps * pim) @ u0
        mw_p, mw_m, mw_0 = up @ cp, um @ cm, u0 @ c0
        dmw = (mw_p - mw_m) / (2 * delta)
        r_w = 1j * eps * (dmw - 1j * pim @ mw_0) - h @ mw_0
        res_ad.append(np.linalg.norm(r_ad, 2))
        res_w.append(np.linalg.norm(r_w, 2))
    return probes, np.asarray(res_ad), np.asarray(res_w)


def csv_text(values, n_cols):
    """CSV rows of ``n_cols`` from the flat ``values``: ``b"%.17g" % v`` each,
    by one bytes ``%`` over all of them."""
    values = np.asarray(values, dtype=float).ravel()
    row = (",".join(["%.17g"] * n_cols) + "\n").encode()
    return row * (values.size // n_cols) % tuple(values.tolist())


def write_csv(path, header, columns, block_rows=1024):
    """The CSV contract by ``csv_text``: ``%.17g`` floats, ``\\n`` line ends,
    rows to the shortest column, ``block_rows`` rows per ``%``.

    ``cli._write_csv`` must write the same bytes.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = min(map(len, columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            fh.write(csv_text(np.column_stack([c[start:stop] for c in columns]),
                              len(columns)))
