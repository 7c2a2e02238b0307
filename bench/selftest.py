"""The benchmark's own tests: generator, tiny-size runs, tracing side effects.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's default test run:
every spectral study pays the oracle's fixed 48k/96k-cell eigensolve, so
the tiny runs still take tens of seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import studies
from fluxramp import cli

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_argv():
    for workload in studies.WORKLOADS:
        first = studies.generate(workload, 7)
        assert first == studies.generate(workload, 7)
        assert first != studies.generate(workload, 8)


def test_generated_argv_parses():
    parser = cli.build_parser()
    for workload in studies.WORKLOADS:
        for scale in studies.SIZES:
            for study in studies.generate(workload, 3, scale):
                parser.parse_args(list(study.argv) + ["--out", "unused"])


def _tiny(workload, trace):
    result, lines = run.execute(workload, seed=1, seconds=0.0, trace=trace,
                                scale="tiny", setup_repeats=1)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_tiny_untraced_run_reports_end_to_end_metrics():
    values = _tiny("integral-eq", trace=False)
    assert all(value > 0 for value in values.values())
    assert values["pass_ratio"] == 1.0


# Layers each workload must use (count > 0) and must bypass (count == 0).
USES = {
    "orbit": ({"classical.rhs_evals"},
              {"specfun.points", "spectral.fd_cells", "spectral.pi_calls"}),
    "integral-eq": ({"specfun.points", "reduced.picard_iters", "reduced.ode_rhs_evals",
                     "classical.rhs_evals"},
                    {"spectral.fd_cells", "spectral.pi_calls"}),
    "spectral-oracle": ({"spectral.fd_cells"},
                        {"specfun.points", "classical.rhs_evals", "spectral.pi_calls"}),
    "adiabatic-sweep": ({"spectral.pi_calls", "adiabatic.panels"},
                        {"specfun.points", "classical.rhs_evals", "spectral.fd_cells"}),
}


@pytest.mark.parametrize("workload", studies.WORKLOADS)
def test_tiny_traced_run(workload):
    values = _tiny(workload, trace=True)
    used, bypassed = USES[workload]
    assert all(values[name] > 0 for name in used)
    assert all(values[name] == 0 for name in bypassed)
    assert values["cli.bytes_out"] > 0 and values["trace.overhead_ratio"] > 0


def test_traced_outputs_are_byte_identical(tmp_path):
    for workload in studies.WORKLOADS:
        study = studies.generate(workload, 2, "tiny")[-1]
        _, code, error = run.run_study(study, str(tmp_path / "plain"))
        with spans.Recorder() as rec:
            _, code_traced, _ = run.run_study(study, str(tmp_path / "traced"))
        assert code == code_traced == 0, error
        for ext in (".csv", ".json"):
            assert ((tmp_path / f"plain{ext}").read_bytes()
                    == (tmp_path / f"traced{ext}").read_bytes())
        # self times partition the root cli.main spans
        roots = sum(end - start for _, start, end, parent in rec.spans if parent < 0)
        assert sum(rec.self_times().values()) == pytest.approx(roots, abs=1e-9)
    assert cli.main.__code__.co_name == "main"  # the originals are back


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "orbit",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""


def test_predictions_cover_every_layer_metric():
    record = json.loads((Path(run.__file__).parent / "predictions.json").read_text())
    named = {m for row in record["predictions"] for m in row["layer_metrics"]}
    assert named == {m["name"] for m in SPEC["per_layer"]}
    assert set(record["workloads"]) == set(studies.WORKLOADS)
    a0 = record["checks"]["reduced runs"]["|a0 - a0_from_amplitude| / a0_from_amplitude, s_max >= 1e3"]
    assert a0 == oracle.A0_REL_BOUND
