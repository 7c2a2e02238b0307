"""The CLI contract, run as the console script runs it: each run is
``python -m fluxramp.cli`` in a fresh interpreter.

Every run exits 0 with nothing on stderr, and ``summary`` must hold of the
JSON it writes.  ``load`` and ``avoid`` name modules that must, and must
not, be in ``sys.modules`` when the interpreter exits.  ``threads`` holds
the ``OPENBLAS_NUM_THREADS`` of each run (``None``: inherited); a case of
two runs must write the same bytes both times.  ``reference_csv`` asks
that the CSV be what ``reference.write_csv`` writes of its parsed values.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

import fluxramp
import reference as ref

# the console script's own run, plus the loaded modules written at exit
PROBE = """
import atexit, runpy, sys
modules = sys.argv.pop(1)
atexit.register(lambda: open(modules, "w").write("\\n".join(sys.modules)))
runpy.run_module("fluxramp.cli", run_name="__main__", alter_sys=True)
"""
# the classical, adiabatic and closed-form spectral studies load neither
CLOSED_FORM = ("scipy", "numpy.polynomial")
ONE_AND_TWO_THREADS = ("1", "2")
TWICE = (None, None)


@dataclasses.dataclass(frozen=True)
class Case:
    argv: str
    summary: object = None
    load: tuple = ()
    avoid: tuple = ()
    threads: tuple = (None,)
    reference_csv: bool = False


def passed(summary):
    return summary["pass"] is True


CASES = {
    "classical-closed-form": Case(
        "classical --phi 0.5 --q0 1.3,-0.4 --p0 0.2,0.9 --s-end 100 --tol 1e-12",
        avoid=CLOSED_FORM),
    "adiabatic-closed-form": Case(
        "adiabatic --levels 8 --epsilons 0.2,0.1 --samples 9",
        avoid=CLOSED_FORM, threads=TWICE),
    "coupling-closed-form": Case(
        "spectral --s 0.5,2 --levels 16 --check coupling", avoid=CLOSED_FORM),
    "gamma-closed-form": Case(
        "spectral --s 0,1.5 --levels 16 --check gamma", avoid=CLOSED_FORM),
    # the polynomial panels replaced the cubic splines
    "reduced-crosscheck": Case(
        "reduced --phi 0.5 --s-max 150 --crosscheck",
        load=("scipy.special",), avoid=("scipy.interpolate",), threads=TWICE),
    # the structured bisection replaced the sparse eigensolve
    "kernel": Case(
        "spectral --s 0,7 --levels 8 --check kernel",
        summary=passed, avoid=("scipy.sparse",), threads=TWICE),
    # the ladder's 24k and 48k energies (Rayleigh-quotient iteration) put
    # the extrapolated error near 7e-13; with the 24k grid bisected it
    # was 1.7e-11 to 2.6e-11
    "oracle": Case(
        "spectral --s 0,2 --levels 64 --check oracle",
        summary=lambda j: passed(j) and all(
            v["oracle"]["eigenvalue_error"] <= 1e-11 for v in j["checks"].values()),
        threads=TWICE),
    "spectral-all": Case("spectral --s 0.5,2 --levels 16 --check all", summary=passed),
    # the README: the same bytes at one and at two threads
    "reduced-readme": Case("reduced --phi 0.5 --s-max 1000", threads=ONE_AND_TWO_THREADS),
    # about 72k CSV rows (several writer blocks) and twelve residual blocks,
    # each tail carried from the blocks to its right
    "reduced-3000": Case(
        "reduced --phi 0.5 --s-max 3000",
        summary=lambda j: j["residual_sup"] <= 1e-9, threads=TWICE, reference_csv=True),
    # a size where keeping the sweep's Bessel values through the crosscheck
    # shows in peak memory
    "reduced-crosscheck-5000": Case(
        "reduced --phi 0.5 --s-max 5000 --crosscheck",
        summary=lambda j: j["ode_deviation"] <= 1e-6 and j["residual_sup"] <= 1e-9),
    # several rows written per step
    "classical-200001": Case(
        "classical --phi 0.5 --q0 1.3,-0.4 --p0 0.2,0.9 --s-end 100 --tol 1e-10 "
        "--samples 200001", threads=TWICE),
    "classical-readme": Case(
        "classical --phi 0.5 --q0 1.3,-0.4 --p0 0.2,0.9 --s-end 10000 --tol 1e-10 "
        "--samples 2001", threads=ONE_AND_TWO_THREADS),
    # the README sweep: four epsilons, the last one walked at eps/4; the
    # Taylor step is not unitary by construction, so its drift is watched
    # here (2.2e-14 measured)
    "adiabatic-readme": Case(
        "adiabatic --epsilons 0.2,0.1,0.05,0.025 --levels 64 --s-end 2",
        summary=lambda j: passed(j)
        and j["diagnostics"]["filon_panels"] == [200, 200, 200, 320]
        and j["unitarity_defect_max"] <= 1e-12),
}


def loads(loaded, name):
    return any(m == name or m.startswith(name + ".") for m in loaded)


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_contract(tmp_path, case):
    src = os.path.dirname(os.path.dirname(fluxramp.__file__))
    runs = []
    for k, threads in enumerate(case.threads):
        env = dict(os.environ, PYTHONPATH=src)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        prefix, modules = tmp_path / f"run{k}", tmp_path / f"run{k}.modules"
        argv = [sys.executable, "-c", PROBE, str(modules), *case.argv.split(),
                "--out", str(prefix)]
        runs.append((prefix, modules, subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)))
    try:
        errors = [proc.communicate(timeout=300)[1] for _, _, proc in runs]
    finally:
        for _, _, proc in runs:
            proc.kill()
    for (prefix, modules, proc), err in zip(runs, errors):
        assert (proc.returncode, err) == (0, "")
        if case.summary is not None:
            summary = json.loads(prefix.with_suffix(".json").read_text())
            assert case.summary(summary), summary
        loaded = modules.read_text().split()
        assert [name for name in case.load if not loads(loaded, name)] == []
        assert [name for name in case.avoid if loads(loaded, name)] == []
    for ext in (".csv", ".json"):
        outputs = {prefix.with_suffix(ext).read_bytes() for prefix, _, _ in runs}
        assert len(outputs) == 1, ext
    if case.reference_csv:
        csv = runs[0][0].with_suffix(".csv")
        lines = csv.read_text().splitlines()
        rows = [map(float, line.split(",")) for line in lines[1:]]
        ref.write_csv(tmp_path / "ref.csv", lines[0].split(","), list(zip(*rows)))
        assert (tmp_path / "ref.csv").read_bytes() == csv.read_bytes()


def test_oracle_peak_memory_does_not_grow_with_levels(tmp_path):
    # the oracle solves, compares and drops one mode at a time, so a fresh
    # 256-level run (exit 5, the README's known deviation) peaks within
    # 5 MiB of a 64-level one: 68.6 and 68.8 MiB measured, against 112.9
    # and 77.7 while the solved modes were held as one block.  The children
    # are polled against a deadline, so a hung run fails instead of hanging
    src = os.path.dirname(os.path.dirname(fluxramp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    runs = {}
    for levels in (64, 256):
        argv = [sys.executable, "-m", "fluxramp.cli", "spectral", "--s", "1",
                "--levels", str(levels), "--check", "oracle",
                "--out", str(tmp_path / f"levels{levels}")]
        runs[levels] = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.PIPE, text=True)
    peaks, codes = {}, {}
    deadline = time.monotonic() + 300  # as the case table's runs
    try:
        while len(codes) < len(runs):
            assert time.monotonic() < deadline, f"oracle runs unfinished after 300 s: {codes}"
            time.sleep(0.05)
            for levels in runs.keys() - codes.keys():
                pid, status, usage = os.wait4(runs[levels].pid, os.WNOHANG)
                if pid:
                    runs[levels].returncode = codes[levels] = os.waitstatus_to_exitcode(status)
                    peaks[levels] = usage.ru_maxrss / 1024.0  # KiB on Linux
    finally:
        for proc in runs.values():
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    errors = {levels: proc.communicate()[1] for levels, proc in runs.items()}
    assert codes == {64: 0, 256: 5}
    assert errors == {64: "", 256: "one or more spectral checks failed; see JSON report\n"}
    assert abs(peaks[256] - peaks[64]) <= 5.0, peaks
