"""fluxramp benchmark: seeded study batches through the public CLI entry point.

    python3 bench/run.py --workload orbit --seed 1 --seconds 12 --trace 0

One process, one client, closed loop: the studies of the workload's
seeded batch (see ``studies.py``) go through ``fluxramp.cli.main(argv)``
one after another, the next starting when the last returns.  A warm-up
pass runs first; it fixes the reference output bytes and is checked
against the package's acceptance tolerances (``oracle.py``).  Timed
rounds over the batch follow until ``--seconds`` have elapsed; every run
must reproduce its study's warm-up bytes.

``--trace 0`` prints the end-to-end metrics: the wall time of one pass
(sum of per-study medians), the median import time of ``fluxramp.cli``
in fresh interpreters, peak resident memory, the share of studies that
passed, and the accuracy margin.  ``--trace 1`` runs every study
untraced and then traced and prints the per-layer metrics of the traced
runs (``spans.py``).  The last line of standard output is one JSON
object; the lines above it record the environment, each study's argv,
timings and every failure.  ``predictions.json`` records why each
workload exists and what each layer metric should move.

The benchmark builds nothing: it imports the package from ``src/`` of the
checkout it sits in and refuses to run without it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import studies  # noqa: E402  (sibling module; needs no package)

# BLAS runs single-threaded: the studies' matrices are small, and one
# thread keeps the figures steady on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
SETUP_PROBE = ("import time; t = time.perf_counter(); import fluxramp.cli; "
               "print(time.perf_counter() - t); print(fluxramp.cli.__file__)")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "last_level_cache": last_level_cache()}


def last_level_cache():
    """Bytes in the highest cache level the C library reports, or None."""
    for name in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def measure_setup(repeats):
    """Median seconds a fresh interpreter spends in ``import fluxramp.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fluxramp imported from {out[1]}, not from {SRC}")
        times.append(float(out[0]))
    return statistics.median(times)


def run_study(study, prefix):
    """One call of the CLI; returns (seconds, exit code, traceback or None)."""
    from fluxramp import cli
    start = time.perf_counter()
    try:
        code, error = cli.main(list(study.argv) + ["--out", prefix]), None
    except SystemExit as exc:  # argparse rejected the argv
        code, error = exc.code, None
    except Exception:  # a traceback is a failed study, not a failed benchmark
        code, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, error


def digest(prefix):
    """sha256 of PREFIX.csv + PREFIX.json and their total size in bytes."""
    h, size = hashlib.sha256(), 0
    for ext in (".csv", ".json"):
        data = Path(prefix + ext).read_bytes()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


class Verifier:
    """Checks each study's warm-up outputs and holds later runs to their bytes."""

    def __init__(self, batch):
        self.batch = batch
        self.reference = [None] * len(batch)
        self.checks_ok = [False] * len(batch)
        self.margins = []     # (digits, where)
        self.attempted = 0
        self.failures = []

    def record(self, label, i, prefix, code, error):
        """Verify one run of study ``i``; returns the bytes it wrote."""
        self.attempted += 1
        size = 0
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                sha, size = digest(prefix)
                error = (self._check(i, prefix, sha) if label == "warm-up"
                         else self._compare(i, sha))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {exc!r}"
        if error is not None:
            self.failures.append((label, i, self.batch[i], error))
        return size

    def _check(self, i, prefix, sha):
        import oracle  # loads numpy, so only after main() has pinned BLAS
        self.reference[i] = sha
        checks = oracle.check_study(self.batch[i], prefix)
        self.margins += [(c.margin, f"study {i} {c.name}")
                         for c in checks if c.margin is not None]
        bad = [f"{c.name}={c.error if c.error is not None else 'outside window'}"
               for c in checks if not c.ok]
        self.checks_ok[i] = not bad
        return f"check failed: {', '.join(bad)}" if bad else None

    def _compare(self, i, sha):
        if sha != self.reference[i]:
            return "output bytes differ from the warm-up run"
        if not self.checks_ok[i]:
            return "check failed in the warm-up run"
        return None


def execute(workload, seed, seconds, trace, scale="full", setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns (result dict, lines to print above it).

    After a warm-up pass, the studies run in turn, round after round:
    one full round, then as long as the next study, judged by its warm-up
    time, ends within ``seconds``.  A pass's wall time is the sum of the
    studies' median times.  With ``trace`` every study runs untraced and
    then traced.
    """
    import spans  # loads numpy, so only after main() has pinned BLAS
    end_to_end, per_layer = load_spec()
    batch = studies.generate(workload, seed, scale)
    lines = [f"env {json.dumps(environment(), sort_keys=True)}"]
    lines += [f"study {i} [{s.kind}]: {' '.join(s.argv)}" for i, s in enumerate(batch)]
    verifier = Verifier(batch)
    plain, traced, layers = ([[] for _ in batch] for _ in range(3))
    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        prefixes = [str(Path(tmp) / f"study{i}") for i in range(len(batch))]
        warm = []
        for i, study in enumerate(batch):
            seconds_i, code, error = run_study(study, prefixes[i])
            verifier.record("warm-up", i, prefixes[i], code, error)
            warm.append(seconds_i * (2 if trace else 1))
        lines.append(f"warm-up pass {sum(warm):.4f} s")
        start, k = time.perf_counter(), 0
        while True:
            i, label = k % len(batch), f"round {k // len(batch) + 1}"
            if k >= len(batch) and time.perf_counter() - start + warm[i] > seconds:
                break
            seconds_i, code, error = run_study(batch[i], prefixes[i])
            verifier.record(label, i, prefixes[i], code, error)
            plain[i].append(seconds_i)
            if trace:
                with spans.Recorder() as rec:
                    seconds_i, code, error = run_study(batch[i], prefixes[i])
                size = verifier.record("traced " + label, i, prefixes[i], code, error)
                traced[i].append(seconds_i)
                layers[i].append(dict(spans.layer_totals(rec), **{"cli.bytes_out": size}))
            k += 1
    for i, times in enumerate(plain):
        lines.append(f"study {i}: {len(times)} runs, median {statistics.median(times):.4f} s"
                     + (f", traced median {statistics.median(traced[i]):.4f} s" if trace else ""))
    for label, i, study, reason in verifier.failures:
        lines.append(f"FAILED {label} study {i}: {' '.join(study.argv)} -- {reason}")
    failed = len(verifier.failures)
    lines.append(f"attempted {verifier.attempted} failed {failed} "
                 f"fail_ratio {failed / verifier.attempted:.4f} ratio")
    if verifier.margins:
        lines.append("accuracy margin {:.4f} digits at {}".format(*min(verifier.margins)))

    wall = sum(statistics.median(times) for times in plain)
    if trace:
        totals = {name: sum(statistics.median(run[name] for run in runs) for runs in layers)
                  for name in layers[0][0]}
        values = spans.with_rates(totals)
        values["trace.overhead_ratio"] = (
            sum(statistics.median(times) for times in traced) / wall)
        units = per_layer
    else:
        values = {
            "wall_s": wall,
            "setup_s": measure_setup(setup_repeats),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": 1.0 - failed / verifier.attempted,
            "accuracy_margin_digits": min(verifier.margins)[0] if verifier.margins else 0.0,
        }
        units = end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    result = {"correct": failed == 0, "attempted": verifier.attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=studies.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:  # before anything loads numpy
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "fluxramp" / "cli.py").is_file():
        print(f"benchmark: no fluxramp package under {SRC}", file=sys.stderr)
        return 2
    result, lines = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
