"""Command-line front end: four studies, file outputs, frozen exit codes.

Exit codes:  0 ok, 1 numerical failure, 2 validation failure, 3 puncture
event (partial data still written), 4 iteration did not converge,
5 a requested check failed its tolerance.

Every data file is deterministic: floats are written with 17 significant
digits, JSON keys are sorted, and nothing time- or host-dependent goes
into the files, so repeated runs with the same flags are byte-identical.
The JSON is strict: a non-finite value is written as null.
A simple ``key = value`` config file can seed any long option; explicit
flags win.  A malformed flag or value is a validation failure, reported
in one line like every other.
"""

import argparse
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


# rows formatted by one bytes %-format each: large enough that the per-call
# overhead is a few percent of the formatting, small enough that one block's
# floats, as Python objects, and its text (0.3-0.7 MB at 5-10 columns) do
# not raise the peak memory of a run; 4096-row blocks raised it by about 1 MB
_CSV_ROWS = 1024


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, columns):
    """Write the columns as CSV rows of ``%.17g`` floats with ``\\n`` line ends.

    Rows run to the shortest column.  Bytes %-formatting of a float gives
    the same digits as ``_fmt``, NaN and inf included; it is applied to one
    block of ``_CSV_ROWS`` rows at a time, so no copy of the whole table
    is made.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = min(map(len, columns))
    row = (",".join(["%.17g"] * len(columns)) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, _CSV_ROWS):
            stop = min(start + _CSV_ROWS, n_rows)
            block = np.column_stack([c[start:stop] for c in columns])
            fh.write(row * (stop - start) % tuple(block.ravel().tolist()))


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


def _parse_list(text, name):
    """Floats separated by commas or blanks."""
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"{name} needs numbers, got {text!r}") from None


def _parse_vec2(text, name):
    values = _parse_list(text, name)
    if len(values) != 2:
        raise ValidationError(f"{name} needs two components, got {text!r}")
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


def _resolve_options(parser, args):
    """Fill each option of the subcommand that no flag set: from the config
    file if it names it, else with the option's default.

    Explicit flags win because every flag parses to None when absent.  A
    config value is coerced with the option's type and must be one of its
    choices, as a flag must; a key that no subcommand has is an error, a
    key of another subcommand is ignored.  An option without a default is
    required, by flag or config.
    """
    seeded = _read_config(args.config) if args.config else {}
    unknown = set(seeded) - {dest for table in parser.options.values() for dest in table}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = []
    for dest, (kind, default, choices) in parser.options[args.command].items():
        if getattr(args, dest) is not None:
            continue
        if dest in seeded:
            raw = seeded[dest]
            try:
                value = kind(raw)
            except ValueError:
                raise ValidationError(f"config {dest} = {raw!r} is not a valid "
                                      f"{kind.__name__}") from None
            if choices is not None and value not in choices:
                raise ValidationError(f"config {dest} = {raw!r} is not one of {choices}")
            setattr(args, dest, value)
        elif default is None:
            missing.append("--" + dest.replace("_", "-"))
        else:
            setattr(args, dest, default)
    if missing:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")


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
    state = classical.PhaseState(s=args.s_start,
                                 q=_parse_vec2(args.q0, "--q0"),
                                 p=_parse_vec2(args.p0, "--p0"))
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
        print(f"puncture reached at s = {hit.s_hit}", file=sys.stderr)
        return EXIT_PUNCTURE
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
    try:
        sol = reduced.picard_solve(config, args.phi, args.s_start)
    except NoConvergence as exc:
        print(f"no convergence: {exc} (iterations={exc.iterations}, "
              f"last delta={exc.last_delta})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
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
    if config.s_max >= classical.FORWARD_S_MIN:
        ext = reduced.extract_constants(sol)
        summary.update(c1_fit=ext.c1, c2_fit=ext.c2, a0=ext.a0,
                       H_limit=ext.H_limit,
                       a0_from_amplitude=ext.a0_from_amplitude)
    if args.crosscheck:
        summary["ode_deviation"] = reduced.crosscheck_ode(sol)
        state = reduced.from_reduced(sol.grid[0], sol.x1[0], sol.x2[0], args.phi)
        traj = classical.integrate(state, float(sol.grid[-1]),
                                   classical.FluxParams(args.phi),
                                   tol=1e-12, samples=2049)
        summary["classical_deviation"] = reduced.crosscheck_ode(sol, trajectory=traj)
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
            "lanczos_matvecs": list(res.lanczos_matvecs),
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
            "extrapolated_norm": norm_est.extrapolated,
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
    s_values = _parse_list(args.s, "--s")
    if not s_values:
        raise ValidationError("--s needs at least one value")
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
    epsilons = _parse_list(args.epsilons, "--epsilons")
    if not epsilons:
        raise ValidationError("--epsilons needs at least one value")
    res = adiabatic.run_sweep(epsilons=epsilons, s_end=args.s_end, N=args.levels,
                              n_samples=args.samples)
    n_eps, n_s = res.norm_twisted.shape
    _write_csv(args.out + ".csv",
               ["epsilon", "s", "norm_I", "norm_C_minus_id",
                "norm_Uw_minus_Uad", "unitarity_defect"],
               [np.repeat(res.epsilons, n_s), np.tile(res.s_grid, n_eps),
                res.norm_twisted.ravel(), res.norm_c_minus_id.ravel(),
                res.norm_uw_minus_uad.ravel(), np.repeat(res.unitarity_defect, n_s)])
    window = (0.8, 1.2)
    summary = {"epsilons": sorted(epsilons, reverse=True), "s_end": args.s_end,
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


def _switch(text):
    """An on/off option's value in a config file."""
    return text.lower() in ("1", "true", "yes", "on")


def build_parser():
    """The parser; ``parser.options`` maps each subcommand to the table
    {dest: (type, default, choices)} of its long options.  Every flag parses to None
    when absent; _resolve_options fills it from the config file or the
    default, and a default of None makes the option required."""
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

        def option(flag, kind=str, default=None, choices=None, help=None):
            if default is None:
                help = f"{help}; required" if help else "required"
            if kind is _switch:
                cmd.add_argument(flag, action="store_const", const=True, help=help)
            else:
                cmd.add_argument(flag, type=kind, choices=choices, help=help)
            table[flag[2:].replace("-", "_")] = (kind, default, choices)
        return option

    option = command("classical", cmd_classical, "integrate the classical flow")
    option("--phi", float)
    option("--q0", help="initial position 'qx,qy'")
    option("--p0", help="initial momentum 'px,py'")
    option("--s-start", float, 0.0)
    option("--s-end", float)
    option("--tol", float, 1e-10)
    option("--samples", int, 513)
    option("--out", help="output path prefix")

    option = command("reduced", cmd_reduced, "solve the Bessel integral equations")
    option("--phi", float)
    option("--c1", float, 1.0)
    option("--c2", float, 0.0)
    option("--s-start", float, 10.0)
    option("--s-max", float, 150.0)
    option("--picard-tol", float, 1e-8)
    option("--crosscheck", _switch, False,
           help="also compare against direct ODE and flow integration")
    option("--out")

    option = command("spectral", cmd_spectral, "spectral family and its checks")
    option("--s", help="flux value(s), comma separated")
    option("--levels", int, spectral.DEFAULT_LEVELS)
    option("--check", str, "all", choices=["oracle", "kernel", "coupling", "gamma", "all"])
    option("--out")

    option = command("adiabatic", cmd_adiabatic, "adiabatic propagator epsilon sweep")
    option("--s-end", float, 2.0)
    option("--epsilons", str, "0.2,0.1,0.05,0.025")
    option("--levels", int, 64)
    option("--samples", int, 41)
    option("--out")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_options(parser, args)
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
