"""Span recorder that traces the package from outside.

Inside ``with Recorder() as rec:`` public functions of the ``fluxramp``
modules are replaced by wrappers that record a span (bucket, start, end,
parent) and read work counts off the returned objects; leaving the block
puts the originals back.  Nothing is written into the package: names a module
imported with ``from`` are wrapped where they are used
(``reduced.bessel_j``, ``adiabatic.pi_matrix``, ``classical.solve_ivp``,
...).  Spans stay in memory until ``layer_totals`` folds them.

A bucket's self time is the time its spans cover minus the time covered
by spans of other buckets nested inside them; the wrappers add no work
per RHS evaluation or per Bessel point, only per call.
"""

import functools
import time

import numpy as np

from fluxramp import adiabatic, classical, cli, reduced, spectral


def _points(args, result):
    return {"specfun.points": np.size(args[1])}


def _nfev(name):
    return lambda args, result: {name: result.nfev}


def _picard(args, sol):
    return {"reduced.picard_iters": sol.iterations, "reduced.quad_nodes": sol.grid.size}


def _fd_cells(args, fd):
    # the fine grid (FdSpectrum.r) plus its coarse Richardson partner
    return {"spectral.fd_cells": fd.r.size + fd.r.size // 2}


# (owner, attribute, bucket, counts).  ``counts(args, result)`` returns the
# work counts of one call; a bucket of None records the counts but no span.
PROBES = (
    (cli, "main", "cli", None),
    (reduced, "bessel_j", "specfun", _points),
    (reduced, "bessel_y", "specfun", _points),
    (classical, "integrate", "classical.integrate", None),
    (classical, "solve_ivp", None, _nfev("classical.rhs_evals")),
    (classical, "guiding_series", "classical.analysis", None),
    (classical, "motion_constant_series", "classical.analysis", None),
    (classical, "center_energy_fit", "classical.analysis", None),
    (classical, "asymptotics_forward", "classical.analysis", None),
    (classical, "asymptotics_backward", "classical.analysis", None),
    (reduced, "picard_solve", "reduced.picard", _picard),
    (reduced, "residual", "reduced.residual", None),
    (reduced, "extract_constants", "reduced.extract", None),
    (reduced, "crosscheck_ode", "reduced.crosscheck", None),
    (reduced, "solve_ivp", None, _nfev("reduced.ode_rhs_evals")),
    (spectral, "fd_spectrum", "spectral.fd", _fd_cells),
    (spectral.FdSpectrum, "overlaps_with_analytic", "spectral.fd", None),
    (spectral, "kernel_bound_check", "spectral.kernel", None),
    (spectral, "analytic_spectrum", "spectral.closed_form", None),
    (spectral, "coupling_matrix", "spectral.closed_form", None),
    (spectral, "coupling_norm", "spectral.closed_form", None),
    (spectral, "gamma_potential", "spectral.closed_form", None),
    (spectral, "commutator_residual", "spectral.closed_form", None),
    (adiabatic, "pi_matrix", "spectral.pi", None),
    (adiabatic, "twisted_coupling_integral", "adiabatic.twisted", None),
    (adiabatic, "dyson_corrector", "adiabatic.corrector", None),
    (adiabatic, "run_sweep", "adiabatic.sweep", None),
)

class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.spans = []       # [bucket, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, bucket, counts in PROBES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, bucket, counts))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count(self, counts, args, result):
        for name, value in counts(args, result).items():
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def _wrap(self, fn, bucket, counts):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if bucket is None:
                result = fn(*args, **kwargs)
                self._count(counts, args, result)
                return result
            index = len(self.spans)
            self.spans.append([bucket, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counts is not None:
                self._count(counts, args, result)
            return result
        return probe

    def self_times(self):
        """Seconds per bucket: span time minus the spans nested directly in
        it, so nesting within one bucket counts once and nesting of other
        buckets not at all."""
        out = {}
        for bucket, start, end, parent in self.spans:
            out[bucket] = out.get(bucket, 0.0) + (end - start)
            if parent >= 0:
                outer = self.spans[parent][0]
                out[outer] -= end - start
        return out

    def panels(self):
        """Filon/Magnus panels: each propagation pass calls pi once per
        panel edge and midpoint, (pi calls - 1) / 2 panels."""
        per_pass = {}
        for bucket, _, _, parent in self.spans:
            if bucket == "spectral.pi" and parent >= 0:
                per_pass[parent] = per_pass.get(parent, 0) + 1
        return sum((calls - 1) // 2 for calls in per_pass.values())


def layer_totals(recorder):
    """Additive per-layer figures of one traced call: self seconds and counts."""
    t = recorder.self_times()
    c = recorder.counts
    return {
        "cli.self_s": t.get("cli", 0.0),
        "specfun.busy_s": t.get("specfun", 0.0),
        "specfun.points": c.get("specfun.points", 0),
        "classical.integrate_s": t.get("classical.integrate", 0.0),
        "classical.rhs_evals": c.get("classical.rhs_evals", 0),
        "classical.analysis_s": t.get("classical.analysis", 0.0),
        "reduced.picard_s": t.get("reduced.picard", 0.0),
        "reduced.picard_iters": c.get("reduced.picard_iters", 0),
        "reduced.quad_nodes": c.get("reduced.quad_nodes", 0),
        "reduced.residual_s": t.get("reduced.residual", 0.0),
        "reduced.extract_s": t.get("reduced.extract", 0.0),
        "reduced.crosscheck_s": t.get("reduced.crosscheck", 0.0),
        "reduced.ode_rhs_evals": c.get("reduced.ode_rhs_evals", 0),
        "spectral.fd_s": t.get("spectral.fd", 0.0),
        "spectral.fd_cells": c.get("spectral.fd_cells", 0),
        "spectral.kernel_s": t.get("spectral.kernel", 0.0),
        "spectral.closed_form_s": t.get("spectral.closed_form", 0.0),
        "spectral.pi_s": t.get("spectral.pi", 0.0),
        "spectral.pi_calls": sum(1 for span in recorder.spans if span[0] == "spectral.pi"),
        "adiabatic.twisted_s": t.get("adiabatic.twisted", 0.0),
        "adiabatic.corrector_s": t.get("adiabatic.corrector", 0.0),
        "adiabatic.sweep_self_s": t.get("adiabatic.sweep", 0.0),
        "adiabatic.panels": recorder.panels(),
    }


def with_rates(totals):
    """Totals plus the per-unit rates of the specfun and classical layers."""
    out = dict(totals)
    points, evals = totals["specfun.points"], totals["classical.rhs_evals"]
    out["specfun.ns_per_point"] = 1e9 * totals["specfun.busy_s"] / points if points else 0.0
    out["classical.us_per_rhs_eval"] = (
        1e6 * totals["classical.integrate_s"] / evals if evals else 0.0)
    return out
