"""Seeded study batches for the four benchmark workloads.

A workload is a fixed list of study kinds; the seed draws the physical
parameters of each study (initial conditions, flux rate, homogeneous
coefficients, flux values, epsilon ladders).  The cost-setting sizes
(integration spans, tolerances, truncation levels, ``s_max`` ladder) stay
fixed, so one seed's batch costs about what another's does and the seed
changes only which point of the parameter space the program solves.

The program receives nothing but the generated argv.  Vector flags are
written as ``--q0=-1.0,0.6``: with a space, argparse reads a leading minus
sign as a new option and rejects the value.
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("orbit", "integral-eq", "spectral-oracle", "adiabatic-sweep")

# Problem sizes per scale.  "full" is what the benchmark measures; "tiny"
# keeps every study kind and check but shrinks spans and truncations so
# the benchmark's own tests run in seconds.
SIZES = {
    "full": {
        "forward_s_end": 10000.0, "forward_samples": 2001,
        "backward_s_end": -1000.0, "backward_samples": 801, "backward_runs": 2,
        "tight_s_end": 100.0, "tight_samples": 1001, "tight_runs": 12,
        "s_max_ladder": (1000.0, 1500.0, 2000.0, 2500.0, 3000.0), "crosscheck_s_max": 150.0,
        "spectral_levels": 64, "spectral_studies": 2,
        "small_levels": 32, "small_eps": (0.02, 0.03),
        "large_levels": 128, "large_eps": (0.08, 0.12),
    },
    "tiny": {
        "forward_s_end": 3000.0, "forward_samples": 801,
        "backward_s_end": -1000.0, "backward_samples": 401, "backward_runs": 1,
        "tight_s_end": 20.0, "tight_samples": 201, "tight_runs": 2,
        "s_max_ladder": (1000.0,), "crosscheck_s_max": 120.0,
        "spectral_levels": 8, "spectral_studies": 1,
        "small_levels": 8, "small_eps": (0.1, 0.2),
        "large_levels": 12, "large_eps": (0.2, 0.3),
    },
}


@dataclass(frozen=True)
class Study:
    """One CLI invocation: ``kind`` selects the output checks."""

    kind: str
    argv: tuple

    def options(self):
        """``--flag=value`` pairs of the argv as a dict (flag without dashes)."""
        out = {}
        for arg in self.argv[1:]:
            key, _, value = arg.partition("=")
            out[key.lstrip("-")] = value if value else True
        return out


def _num(x):
    return repr(round(x, 6))


def _vec(rng, lo, hi):
    """A 2-vector with seeded direction and length in [lo, hi]."""
    r, t = rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)
    return f"{_num(r * math.cos(t))},{_num(r * math.sin(t))}"


def _near(rng, x, y, jitter=0.1):
    return f"{_num(x + rng.uniform(-jitter, jitter))},{_num(y + rng.uniform(-jitter, jitter))}"


def _classical(rng, kind, s_end, tol, samples):
    # The asymptotic checks hold only inside their regime at these spans.
    # Forward: the outgoing energy H_limit must stand well above its O(1/s)
    # ripple at s_end, or the program exits 1 ("tail of H has not
    # settled"); free initial conditions can leave with H_limit near 0.008
    # (tail spread 5.9% > 5%), so the forward run perturbs the acceptance
    # fixture q0 = (1.3, -0.4), p0 = (0.2, 0.9).  Backward: |q|/sqrt(2 phi|s|)
    # deviates from 1 by about |c|/sqrt(2 phi|s|), c = q0/2 - perp(p0) the
    # initial guiding center, so |c| <= 1.2 keeps it inside 1 +/- 0.05.
    if kind == "forward":
        q0, p0 = _near(rng, 1.3, -0.4), _near(rng, 0.2, 0.9)
    elif kind == "backward":
        q0, p0 = _vec(rng, 0.8, 1.2), _vec(rng, 0.2, 0.6)
    else:
        q0, p0 = _vec(rng, 0.8, 1.4), _vec(rng, 0.4, 1.0)
    return Study(kind, ("classical", f"--phi={_num(rng.uniform(0.45, 0.55))}",
                        f"--q0={q0}", f"--p0={p0}", f"--s-end={_num(s_end)}",
                        f"--tol={tol}", f"--samples={samples}"))


def _reduced(rng, kind, s_max, c2_free=True, crosscheck=False):
    argv = ["reduced", f"--phi={_num(rng.uniform(0.4, 0.6))}",
            f"--c1={_num(rng.uniform(0.8, 1.2))}",
            f"--c2={_num(rng.uniform(-0.5, 0.5)) if c2_free else '0.0'}",
            "--s-start=10.0", f"--s-max={_num(s_max)}", "--picard-tol=1e-08"]
    if crosscheck:
        argv.append("--crosscheck")
    return Study(kind, tuple(argv))


def _ladder(rng, lo, hi):
    base = rng.uniform(lo, hi)
    return f"{_num(base)},{_num(base / 2.0)}"


def generate(workload, seed, scale="full"):
    """The batch of studies of ``workload`` for ``seed``; same seed, same argv."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = SIZES[scale]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "orbit":
        return ([_classical(rng, "forward", size["forward_s_end"], "1e-10",
                            size["forward_samples"])]
                + [_classical(rng, "backward", size["backward_s_end"], "1e-10",
                              size["backward_samples"]) for _ in range(size["backward_runs"])]
                + [_classical(rng, "tight", size["tight_s_end"], "1e-12",
                              size["tight_samples"]) for _ in range(size["tight_runs"])])
    if workload == "integral-eq":
        return ([_reduced(rng, "reduced", s_max) for s_max in size["s_max_ladder"]]
                + [_reduced(rng, "crosscheck", size["crosscheck_s_max"],
                            c2_free=False, crosscheck=True)])
    if workload == "spectral-oracle":
        return [Study("spectral", ("spectral", f"--s={_num(rng.uniform(0.0, 2.0))}",
                                   f"--levels={size['spectral_levels']}", "--check=all"))
                for _ in range(size["spectral_studies"])]
    return [Study("adiabatic", ("adiabatic", f"--levels={size['small_levels']}",
                                f"--epsilons={_ladder(rng, *size['small_eps'])}",
                                "--s-end=2.0", "--samples=41")),
            Study("adiabatic", ("adiabatic", f"--levels={size['large_levels']}",
                                f"--epsilons={_ladder(rng, *size['large_eps'])}",
                                "--s-end=2.0", "--samples=41"))]
