"""Output checks of one study, at the acceptance tolerances of the package.

Every check reads the files the CLI wrote (``PREFIX.csv``/``PREFIX.json``)
and recomputes its verdict from the measured values; the pass flags the
program writes itself are not trusted.  Tolerances come from
``tests/test_acceptance.py`` (criterion numbers in the comments).

A check is either an error bound (``error <= tol``), which also yields an
accuracy margin of ``log10(tol / error)`` digits, or a window on an
asymptotic law (a ratio near 1, a fitted exponent near 1).  Window checks
pass or fail but give no margin: their slack measures how far the finite
run is from its asymptotic regime, not how many digits the numerics keep.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

# Relative agreement required between the tail-averaged a0 and the Hankel
# amplitude figure a0_from_amplitude of a reduced study (s_max >= 1e3).
# Both estimate the same outgoing energy scale; on the seeded batches they
# agree to a few 1e-4, so 5e-3 leaves an order of magnitude for noise
# while catching a wrong constant extraction.
A0_REL_BOUND = 5e-3

# A double carries about 16 significant digits; an error reported as 0
# would otherwise give an infinite margin.
MAX_MARGIN = 16.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    error: float = None
    tol: float = None

    @property
    def margin(self):
        """Digits to spare, log10(tol / error); None for window checks."""
        return None if self.tol is None else _digits(self.tol, self.error)


def _digits(tol, error):
    if not math.isfinite(error):
        return -MAX_MARGIN
    if error <= 0.0:
        return MAX_MARGIN
    return min(MAX_MARGIN, math.log10(tol / error))


def bound(name, error, tol):
    error = float(error)
    return Check(name, bool(math.isfinite(error) and error <= tol), error, tol)


def window(name, value, lo, hi):
    return Check(name, bool(lo <= float(value) <= hi))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: rows[:, k] for k, name in enumerate(header)}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _classical(study, prefix, js):
    kind = study.kind
    phi = float(study.options()["phi"])
    checks = []
    if kind == "tight":
        csv = read_csv(prefix + ".csv")
        k = csv["K"]
        checks.append(bound("K_drift_rel", np.max(np.abs(k - k[0])) / (1.0 + abs(k[0])),
                            1e-8))                                            # 01
        checks.append(bound("slope_rel_err", abs(js["slope"] - phi) / phi, 1e-8))  # 02
        law = csv["I1"] - csv["H"] - phi * (csv["s"] - js["s0"])
        checks.append(bound("center_energy_residual", np.max(np.abs(law)), 1e-8))  # 02
    elif kind == "forward":
        checks.append(bound("angle_residual", js["angle_residual"], 0.05))     # 03
    elif kind == "backward":                                                    # 04
        checks.append(window("H_over_abs_s_ratio", js["H_over_abs_s"] / phi, 0.98, 1.02))
        checks.append(window("q_over_sqrt_abs_s_ratio",
                             js["q_over_sqrt_abs_s"] / math.sqrt(2.0 * phi), 0.95, 1.05))
    return checks


def _reduced(study, prefix, js):
    opts = study.options()
    tol = float(opts["picard-tol"])
    checks = [bound("picard_residual_sup", js["residual_sup"], 10.0 * tol)]      # 05
    if "crosscheck" in opts:
        checks.append(bound("ode_deviation", js["ode_deviation"], 1e-6))       # 05
    if float(opts["s-max"]) >= 1e3:
        checks.append(window("a0_vs_amplitude_rel",
                             abs(js["a0"] - js["a0_from_amplitude"]) / js["a0_from_amplitude"],
                             0.0, A0_REL_BOUND))
    return checks


def _spectral(study, prefix, js):
    checks = []
    for s_key, entry in sorted(js["checks"].items()):
        oracle = entry["oracle"]                                               # 06
        checks.append(bound(f"s={s_key}:eigenvalue_error", oracle["eigenvalue_error"], 1e-6))
        checks.append(bound(f"s={s_key}:overlap_defect", 1.0 - oracle["min_overlap"], 1e-6))
        kernel = entry["kernel"]                                               # 07
        checks.append(window(f"s={s_key}:kernel_bound", kernel["refined_norm"],
                             0.0, kernel["bound"] + 1e-6))
        coupling = entry["coupling"]                                           # 08a
        checks.append(bound(f"s={s_key}:hermiticity", coupling["hermiticity_defect"], 1e-10))
        checks.append(bound(f"s={s_key}:diagonal", coupling["diagonal_max"], 1e-10))
        if float(s_key) != 0.0:
            checks.append(window(f"s={s_key}:envelope_min", coupling["envelope_min"], 0.1, 10.0))
            checks.append(window(f"s={s_key}:envelope_max", coupling["envelope_max"], 0.1, 10.0))
        checks.append(bound(f"s={s_key}:commutator_residual",                  # 09
                            entry["gamma"]["commutator_residual"], 1e-10))
    return checks


def _adiabatic(study, prefix, js):
    checks = [window(f"exponent:{name}", value, 0.8, 1.2)                      # 10
              for name, value in sorted(js["exponents"].items())]
    checks.append(bound("unitarity_defect", js["unitarity_defect_max"], 1e-8))  # 10
    csv = read_csv(prefix + ".csv")
    gap = np.max(np.abs(csv["norm_Uw_minus_Uad"] - csv["norm_C_minus_id"]))
    checks.append(bound("norm_identity_gap", gap, 1e-12))                      # 11
    return checks


_BY_COMMAND = {"classical": _classical, "reduced": _reduced,
               "spectral": _spectral, "adiabatic": _adiabatic}


def check_study(study, prefix):
    """All checks of one study whose outputs sit at ``prefix``."""
    return _BY_COMMAND[study.argv[0]](study, prefix, read_json(prefix + ".json"))
