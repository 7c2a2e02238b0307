"""Command-line front end: four studies, file outputs, frozen exit codes.

Exit codes:  0 ok, 1 numerical failure, 2 validation failure, 3 puncture
event (partial data still written), 4 iteration did not converge,
5 a requested check failed its tolerance.

Every data file is deterministic: floats are written with 17 significant
digits, JSON keys are sorted, and nothing time- or host-dependent goes
into the files, so repeated runs with the same flags are byte-identical.
The JSON is strict: a non-finite value is written as null.
A simple ``key = value`` config file can seed any long option: its lines
are read as ``--key=value`` flags ahead of the explicit ones, which win,
so a value parses the same from either.  A malformed flag or value is a
validation failure, reported in one line like every other.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, adiabatic, classical, reduced, spectral
from .errors import FluxrampError, NoConvergence, PunctureHit, ValidationError

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_VALIDATION = 2
EXIT_PUNCTURE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5


# values per CSV block: every buffer of a block (its text, 48 bytes a value,
# is the largest) stays below glibc's default 128 KiB mmap threshold, so the
# writer leaves the allocator's thresholds as the studies set them; with
# 4096-value blocks, or with the lookup tables kept for the whole process
# (they then pinned the heap above the studies' freed arrays), peak RSS of
# the integral-eq bench was 6-7 MiB higher in a third of the runs
_CSV_VALUES = 2048

# exponents the vectorised path meets: floor(log10 |x|) for |x| in
# [1e-250, 1e250], with room for a logarithm one ulp off
_E_MAX = 251


def _fmt(x):
    return f"{float(x):.17g}"


def _format_tables():
    """The lookup tables of ``_csv_block``, built for each file (1-2 ms).

    Indexed by ``e + _E_MAX`` for the decimal exponent ``e``: ``10^(16 - e)``
    as the double-double ``p_hi + p_lo`` (from exact integers), ``p_hi``
    split in two 26-bit halves for Dekker's product, and the layout of the
    exponent's row: the offset of its head word, its tail word, the divisor
    leaving the digits after the point, and the point's byte in the slot.
    Indexed by a digit group ``g``: the four digits of ``g`` at the even
    bytes of a word, trailing zeros dropped (``g``) or kept (``g + 10000``).
    """
    p_hi, p_lo = [], []
    exponents = range(-_E_MAX, _E_MAX + 1)
    for e in exponents:
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        p_hi.append(hi)
        p_lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    p_hi = np.array(p_hi)
    t = p_hi * 134217729.0
    p_hh = t - (t - p_hi)
    pow10 = (p_hi, p_hh, p_hi - p_hh, np.array(p_lo))

    def words(chunks):
        return np.frombuffer(b"".join(c.ljust(8, b"\0") for c in chunks), np.uint64)

    g = np.arange(10000)
    spread = np.zeros((2, 10000, 8), np.uint8)
    kept = np.zeros(10000, bool)
    # last digit first, so kept marks the digits up to the last nonzero one
    for i in (3, 2, 1, 0):
        digit = g // 10 ** (3 - i) - g // 10 ** (4 - i) * 10 + 48
        kept = kept | (digit != 48)
        spread[0, :, 2 * i] = digit * kept
        spread[1, :, 2 * i] = digit
    groups = spread.view(np.uint64).ravel()
    zeros = words(b"0\0" * c for c in range(5))
    head = words(b"%s%s%d" % (sign, b"0.000"[:p + 1 if p else 0].ljust(5, b"\0"), d)
                 for sign in (b"\0", b"-") for p in range(5) for d in range(10))
    fixed = [-4 <= e < 17 for e in exponents]
    lead = np.array([-10 * e if e < 0 and f else 0 for e, f in zip(exponents, fixed)])
    tail = words((b"" if f else b"e%+03d" % e).ljust(5, b"\0") + b","
                 for e, f in zip(exponents, fixed))
    after = np.array([10 ** (16 - e) if e >= 0 and f else 10 ** 17 if f else 10 ** 16
                      for e, f in zip(exponents, fixed)])
    spot = np.array([7 + 2 * e if e >= 0 and f else 2 if f else 7
                     for e, f in zip(exponents, fixed)])
    return pow10, groups, zeros, head, lead, tail, after, spot


def _scaled(a, t, pow10):
    """``a 10^(16 - e)``, ``t = e + _E_MAX``, as ``hi + lo`` with
    ``hi = fl(a p_hi)``, error below 1e-13.

    Dekker's exact product ``a p_hi`` (Numer. Math. 18, 1971) plus the
    rounded ``a p_lo``.
    """
    p_hi, p_hh, p_hl, p_lo = (p.take(t) for p in pow10)
    hi = a * p_hi
    t = a * 134217729.0
    a_h = t - (t - a)
    a_l = a - a_h
    return hi, ((a_h * p_hh - hi) + a_h * p_hl + a_l * p_hh) + a_l * p_hl + a * p_lo


def _csv_block(values, n_cols, tables):
    """The CSV text of ``values``, rows of ``n_cols``: ``b"%.17g" % v`` each.

    ``tables`` is ``_format_tables()``.

    A finite ``v`` with ``|v|`` in [1e-250, 1e250] is formatted from whole
    arrays.  With ``e = floor(log10 |v|)``, the product ``|v| 10^(16 - e)``,
    accurate to 1e-13, rounded to an integer in [1e16, 1e17) gives the 17
    digits.  Every other value goes through ``b"%.17g" % v`` itself: 0, -0,
    nan, inf, subnormals, larger or smaller magnitudes, products within
    1e-6 of a tie, and products that round outside [1e16, 1e17) (``e`` one
    off next to a power of ten, or a carry to the next power), so no digit
    rests on the approximation.  The layout is ``%g``'s: fixed for
    ``-4 <= e < 17``, else ``d.ddde±XX``, trailing zeros and a bare point
    dropped.  Each value fills a 48-byte slot of six words (sign, ``0.000``
    prefix and first digit; four words of four digits, each digit followed
    by a point byte; exponent and separator) with NUL in every byte it does
    not use, and the NULs are deleted at the end.
    """
    pow10, groups, zeros, head, lead, tail, after, spot = tables
    a = np.fmax(np.fmin(np.abs(values), 1e250), 1e-250)
    e = np.floor(np.log10(a)).astype(np.intp)
    t = e + _E_MAX
    hi, lo = _scaled(a, t, pow10)
    r = np.rint(lo)
    digits = hi.astype(np.int64) + r.astype(np.int64)
    # hi + lo must lie in [1e16, 1e17): a misjudged exponent (a value next
    # to a power of ten) or a carry to 10^17 goes through % as well
    slow = ((a != np.abs(values)) | (np.abs(lo - r) > 0.5 - 1e-6)
            | (digits < 10 ** 16) | (digits >= 10 ** 17) | ((digits == 10 ** 16) & (lo < r)))
    np.putmask(digits, slow, 10 ** 16)

    # int64 and bool operations only, the kinds the studies use too: each
    # further kind of numpy loop maps its own pages of numpy's library (up
    # to 64 KiB each), which showed in the peak RSS of studies with small files
    top = digits // 100000000
    low = digits - top * 100000000
    first = top // 100000000
    mid = top // 10000
    g1 = mid - first * 10000
    g2 = top - mid * 10000
    g3 = low // 10000
    g4 = low - g3 * 10000
    words = np.empty((values.size, 6), np.uint64)
    words[:, 0] = head.take(lead.take(t) + (values < 0) * 50 + first)
    words[:, 1] = groups.take(g1 + ((g2 != 0) | (low != 0)) * 10000)
    words[:, 2] = groups.take(g2 + (low != 0) * 10000)
    words[:, 3] = groups.take(g3 + (g4 != 0) * 10000)
    words[:, 4] = groups.take(g4)
    words[:, 5] = tail.take(t)
    div = after.take(t)
    rest = digits - digits // div * div
    # integers in fixed notation keep the zeros before their point
    whole = (rest == 0) & (e > 0) & (e < 17)
    if np.count_nonzero(whole):
        whole = np.flatnonzero(whole)
        words[whole, 1:5] |= zeros[np.clip(e[whole, None] - np.arange(0, 16, 4), 0, 4)]
    text = words.view(np.uint8)
    dotted = np.flatnonzero(rest)
    text.reshape(-1)[dotted * 48 + spot.take(t.take(dotted))] = 46
    text[n_cols - 1::n_cols, 45] = 10
    if np.count_nonzero(slow):
        rows = np.flatnonzero(slow)
        exact = (b"%.17g\n" * rows.size % tuple(values[rows].tolist())).split(b"\n")[:-1]
        text[rows, :45] = np.array(exact, dtype="S45").view(np.uint8).reshape(-1, 45)
    return text.tobytes().translate(None, b"\0")


def _write_csv(path, header, columns):
    """Write the columns as CSV rows of ``%.17g`` floats with ``\\n`` line ends.

    Rows run to the shortest column.  The rows are formatted by
    ``_csv_block`` about ``_CSV_VALUES`` values at a time, and each block is
    written as soon as it is made, so no copy of the whole table is held.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = min(map(len, columns))
    step = max(1, _CSV_VALUES // len(columns))
    tables = _format_tables()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, step):
            stop = min(start + step, n_rows)
            block = np.column_stack([c[start:stop] for c in columns])
            fh.write(_csv_block(block.ravel(), len(columns), tables))


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _check_out_prefix(prefix):
    """Fail before any work when the output files could not be created."""
    folder = os.path.dirname(prefix) or "."
    if not os.path.isdir(folder):
        raise ValidationError(f"output directory {folder!r} does not exist")
    if not os.access(folder, os.W_OK):
        raise ValidationError(f"output directory {folder!r} is not writable")


def _floats(text):
    """Floats separated by commas or blanks, at least one: an option's type."""
    try:
        values = [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def _vec2(text):
    values = _floats(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"needs two components, got {text!r}")
    return np.array(values)


def _read_config(path):
    """The ``key = value`` pairs of a config file, keys spelled as dests."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read config file {path!r}: {reason}") from exc
    values = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def _classical_files(traj, out):
    c, v, I1, H = classical.guiding_series(traj)
    K = classical.motion_constant_series(traj)
    _write_csv(out + ".csv",
               ["s", "qx", "qy", "px", "py", "cx", "cy", "H", "K", "I1"],
               [traj.s, traj.q[:, 0], traj.q[:, 1], traj.p[:, 0], traj.p[:, 1],
                c[:, 0], c[:, 1], H, K, I1])
    return K


def cmd_classical(args):
    params = classical.FluxParams(phi=args.phi)
    state = classical.PhaseState(s=args.s_start, q=args.q0, p=args.p0)
    summary = {"phi": args.phi, "s_start": args.s_start, "s_end": args.s_end,
               "tol": args.tol, "puncture_hit": False, "s_hit": None,
               "s0": None, "slope": None, "K_drift": None,
               "a0": None, "drift_angle": None, "H_limit": None,
               "angle_residual": None}
    try:
        traj = classical.integrate(state, args.s_end, params, tol=args.tol,
                                   samples=args.samples)
    except PunctureHit as hit:
        if hit.trajectory is not None:
            summary["diagnostics"] = hit.trajectory.diagnostics
            if len(hit.trajectory) > 0:
                _classical_files(hit.trajectory, args.out)
        summary["puncture_hit"] = True
        summary["s_hit"] = hit.s_hit
        _write_json(args.out + ".json", summary)
        raise
    summary["diagnostics"] = traj.diagnostics
    K = _classical_files(traj, args.out)
    summary["K_drift"] = float(np.max(np.abs(K - K[0])))
    # each analysis runs when the trajectory meets the condition it checks
    if len(traj) >= classical.FIT_MIN_SAMPLES:
        fit = classical.center_energy_fit(traj)
        summary["s0"] = fit.s0
        summary["slope"] = fit.slope
    if np.min(traj.s) < classical.BACKWARD_S_MAX:
        bwd = classical.asymptotics_backward(traj)
        summary["H_over_abs_s"] = bwd.H_over_abs_s
        summary["q_over_sqrt_abs_s"] = bwd.q_over_sqrt_abs_s
    try:
        if traj.s[-1] >= classical.FORWARD_S_MIN:
            fwd = classical.asymptotics_forward(traj)
            summary.update(a0=fwd.a0, drift_angle=fwd.drift_angle,
                           H_limit=fwd.H_limit, angle_residual=fwd.angle_residual)
    finally:    # also when the tail of H has not settled: forward keys stay null
        _write_json(args.out + ".json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reduced
# ---------------------------------------------------------------------------

def cmd_reduced(args):
    config = reduced.IntegralEqConfig(s_max=args.s_max, c1=args.c1, c2=args.c2,
                                      picard_tol=args.picard_tol)
    sol = reduced.picard_solve(config, args.phi, args.s_start)
    res1, res2 = reduced.residual(sol)
    _write_csv(args.out + ".csv", ["s", "x1", "x2", "residual1", "residual2"],
               [sol.grid, sol.x1, sol.x2, res1, res2])
    summary = {"phi": args.phi, "iters": sol.iterations,
               "tail_estimate": sol.tail_estimate,
               "residual_sup": float(max(np.max(np.abs(res1)), np.max(np.abs(res2)))),
               "c1": args.c1, "c2": args.c2,
               "c1_fit": None, "c2_fit": None, "a0": None,
               "diagnostics": {"picard_deltas": sol.deltas.tolist(),
                               "quad_nodes": sol.grid.size,
                               "residual_nodes": config.residual_nodes(sol.s_start)}}
    try:
        if config.s_max >= classical.FORWARD_S_MIN:
            ext = reduced.extract_constants(sol)
            summary.update(c1_fit=ext.c1, c2_fit=ext.c2, a0=ext.a0,
                           H_limit=ext.H_limit,
                           a0_from_amplitude=ext.a0_from_amplitude)
        # the residual and the fit have read the sweep's Bessel values
        sol = dataclasses.replace(sol, bessel=None)
        if args.crosscheck:
            summary["ode_deviation"] = reduced.crosscheck_ode(sol)
            state = reduced.from_reduced(sol.grid[0], sol.x1[0], sol.x2[0], args.phi)
            traj = classical.integrate(state, float(sol.grid[-1]),
                                       classical.FluxParams(args.phi),
                                       tol=1e-12, samples=2049)
            summary["classical_deviation"] = reduced.crosscheck_ode(sol, trajectory=traj)
    finally:    # also on a degenerate fit: the fit's keys stay null
        _write_json(args.out + ".json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def _check_oracle(fam):
    """Compare the lower half of the family with the finite-volume oracle,
    which solves only those levels, on the grid of the full family
    (SectorParams needs two levels, so a 2- or 3-level family solves two)."""
    half = max(1, fam.N // 2)
    fd = spectral.fd_spectrum(spectral.SectorParams(s=fam.s, N=max(2, half)),
                              r_max=spectral.fd_r_max(fam.s, fam.N))
    ev_err = float(np.max(np.abs(fd.energies[:half] - fam.energies[:half])))
    min_overlap = float(np.min(fd.overlaps_with_analytic(fam)[:half]))
    return {"eigenvalue_error": ev_err, "min_overlap": min_overlap,
            "levels_solved": fd.N, "cells_coarse": spectral.FD_CELLS,
            "cells_fine": fd.r.size, "bisection_tol": spectral.FD_BISECTION_TOL,
            "pass": bool(ev_err <= 1e-6 and min_overlap >= 1.0 - 1e-6)}


def _check_kernel(s):
    res = spectral.kernel_bound_check(s)
    return {"bound": res.bound, "norm": res.norm, "refined_norm": res.refined_norm,
            "extrapolated": res.extrapolated, "refinement_drift": res.refinement_drift,
            "tail_estimate": res.tail_estimate,
            "grid_points": list(res.grid_points),
            "bisection_probes": list(res.bisection_probes),
            "pass": bool(res.refined_norm <= res.bound + 1e-6)}


def _check_coupling(fam):
    s, n_levels = fam.s, fam.N
    pi = spectral.coupling_matrix(fam)
    herm = float(np.linalg.norm(pi - pi.conj().T, 2))
    diag = float(np.max(np.abs(np.diag(pi))))
    # |Pi_mn| (n - m) ((n+1)/(m+1))^(s/2) on the band n - m <= N/2 above
    # the diagonal; at large s (from about 400 at 64 levels) the factor
    # overflows to inf, the true ratio is far above the window, which fails
    m, n = np.triu_indices(n_levels, 1)
    band = n - m <= n_levels // 2
    m, n = m[band], n[band]
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.abs(pi[m, n]) * (n - m) * ((n + 1) / (m + 1)) ** (s / 2.0)
    norm_est = spectral.coupling_norm(
        pi, [max(2, n_levels // 4), min(max(3, n_levels // 2), n_levels), n_levels])
    envelope_ok = bool(s == 0.0 or (ratios.min() >= 0.1 and ratios.max() <= 10.0))
    return {"hermiticity_defect": herm, "diagonal_max": diag,
            "envelope_min": float(ratios.min()), "envelope_max": float(ratios.max()),
            "norms": norm_est.norms.tolist(),
            "truncations": norm_est.truncations.tolist(),
            "pass": bool(herm <= 1e-10 and diag <= 1e-10 and envelope_ok)}


def _check_gamma(fam):
    pi = spectral.coupling_matrix(fam)
    gam = spectral.gamma_potential(pi, fam)
    resid = spectral.commutator_residual(gam, pi, fam)
    # the gaps E_m - E_n do not depend on s: d_s Gamma is Gamma of d_s Pi
    dgam = float(np.linalg.norm(
        spectral.gamma_potential(spectral.pi_derivative(fam.s, fam.N), fam), 2))
    gnorm = float(np.linalg.norm(gam, 2))
    return {"commutator_residual": resid, "gamma_norm": gnorm,
            "gamma_derivative_norm": dgam, "bound_constant": gnorm + dgam,
            "pass": bool(resid <= 1e-10)}


def cmd_spectral(args):
    s_values = args.s
    if len(set(s_values)) != len(s_values):
        raise ValidationError(f"flux values must be distinct, got {s_values!r}")
    params = [spectral.SectorParams(s=s, N=args.levels) for s in s_values]
    which = args.check
    if which in ("oracle", "all"):
        for s in s_values:  # the oracle's finest grid leaves the double range first
            if not spectral.fd_grid_representable(s, spectral.fd_r_max(s, args.levels),
                                                  4 * spectral.FD_CELLS):
                raise ValidationError(f"--s {s:g} at {args.levels} levels is beyond the "
                                      f"double range of the oracle's weights r^(2s+1)")
    fams = [spectral.analytic_spectrum(par) for par in params]
    header = ["s"] + [f"E{n}" for n in range(args.levels)]
    columns = [np.array(s_values)] + [
        np.array([f.energies[n] for f in fams]) for n in range(args.levels)]
    _write_csv(args.out + ".csv", header, columns)
    report = {"s": s_values, "levels": args.levels, "checks": {}}
    ok = True
    for s, fam in zip(s_values, fams):
        entry = {}
        if which in ("oracle", "all"):
            entry["oracle"] = _check_oracle(fam)
        if which in ("kernel", "all"):
            entry["kernel"] = _check_kernel(s)
        if which in ("coupling", "all"):
            entry["coupling"] = _check_coupling(fam)
        if which in ("gamma", "all"):
            entry["gamma"] = _check_gamma(fam)
        ok = ok and all(block["pass"] for block in entry.values())
        report["checks"][_fmt(s)] = entry
    report["pass"] = bool(ok)
    _write_json(args.out + ".json", report)
    if not ok:
        print("one or more spectral checks failed; see JSON report", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# adiabatic
# ---------------------------------------------------------------------------

def cmd_adiabatic(args):
    res = adiabatic.run_sweep(epsilons=args.epsilons, s_end=args.s_end, N=args.levels,
                              n_samples=args.samples)
    n_eps, n_s = res.norm_twisted.shape
    _write_csv(args.out + ".csv",
               ["epsilon", "s", "norm_I", "norm_C_minus_id",
                "norm_Uw_minus_Uad", "unitarity_defect"],
               [np.repeat(res.epsilons, n_s), np.tile(res.s_grid, n_eps),
                res.norm_twisted.ravel(), res.norm_c_minus_id.ravel(),
                res.norm_uw_minus_uad.ravel(), np.repeat(res.unitarity_defect, n_s)])
    window = (0.8, 1.2)
    summary = {"epsilons": sorted(args.epsilons, reverse=True), "s_end": args.s_end,
               "levels": args.levels, "exponents": res.exponents,
               "window": list(window),
               "unitarity_defect_max": float(res.unitarity_defect.max()),
               "diagnostics": {"filon_panels": res.panels.tolist()}}
    ok = True
    if res.exponents is not None:
        for value in res.exponents.values():
            ok = ok and (window[0] <= value <= window[1])
    summary["pass"] = bool(ok)
    _write_json(args.out + ".json", summary)
    if not ok:
        print("epsilon-scaling exponents left the window; see JSON", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError: exit 2 with one line."""

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    """The parser; ``parser.options`` maps each subcommand to its long
    options, {dest: argparse action}, the keys a config file may set."""
    parser = _Parser(
        prog="fluxramp",
        description="Numerical studies of a charged particle in a punctured "
                    "plane with a linearly ramped flux line")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.options = {}

    def command(name, func, help):
        cmd = sub.add_parser(name, help=help)
        cmd.add_argument("--config", help="key=value file seeding the options")
        cmd.set_defaults(func=func)
        table = parser.options[name] = {}

        def option(flag, **kwargs):
            action = cmd.add_argument(flag, **kwargs)
            table[action.dest] = action
        return option

    option = command("classical", cmd_classical, "integrate the classical flow")
    option("--phi", type=float, required=True)
    option("--q0", type=_vec2, required=True, help="initial position 'qx,qy'")
    option("--p0", type=_vec2, required=True, help="initial momentum 'px,py'")
    option("--s-start", type=float, default=0.0)
    option("--s-end", type=float, required=True)
    option("--tol", type=float, default=1e-10)
    option("--samples", type=int, default=513)
    option("--out", required=True, help="output path prefix")

    option = command("reduced", cmd_reduced, "solve the Bessel integral equations")
    option("--phi", type=float, required=True)
    option("--c1", type=float, default=1.0)
    option("--c2", type=float, default=0.0)
    option("--s-start", type=float, default=10.0)
    option("--s-max", type=float, default=150.0)
    option("--picard-tol", type=float, default=1e-8)
    option("--crosscheck", action="store_true",
           help="also compare against direct ODE and flow integration")
    option("--out", required=True)

    option = command("spectral", cmd_spectral, "spectral family and its checks")
    option("--s", type=_floats, required=True, help="flux value(s), comma separated")
    option("--levels", type=int, default=spectral.DEFAULT_LEVELS)
    option("--check", default="all", choices=["oracle", "kernel", "coupling", "gamma", "all"])
    option("--out", required=True)

    option = command("adiabatic", cmd_adiabatic, "adiabatic propagator epsilon sweep")
    option("--s-end", type=float, default=2.0)
    option("--epsilons", type=_floats, default=[0.2, 0.1, 0.05, 0.025])
    option("--levels", type=int, default=64)
    option("--samples", type=int, default=41)
    option("--out", required=True)
    return parser


def _with_config(parser, argv):
    """``argv`` with its ``--config`` file's lines as ``--key=value`` flags
    right after the subcommand, where the explicit flags that follow win.

    A key that no subcommand has is an error, a key of another subcommand
    is skipped, and a switch is set by a value of 1, true, yes or on.
    """
    # the top-level options (--help, --version) take no value and exit, so
    # a subcommand, if any, comes first
    if not argv or argv[0] not in parser.options:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv[1:])[0].config
    if config is None:
        return argv
    seeded = _read_config(config)
    unknown = set(seeded) - {dest for table in parser.options.values() for dest in table}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for dest, value in seeded.items():
        action = parser.options[argv[0]].get(dest)
        if action is None:
            continue
        flag = action.option_strings[0]
        if action.nargs != 0:
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(flag)
    return argv[:1] + flags + argv[1:]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        _check_out_prefix(args.out)
        code = args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except PunctureHit as exc:
        print(f"puncture event: {exc}", file=sys.stderr)
        return EXIT_PUNCTURE
    except FluxrampError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
