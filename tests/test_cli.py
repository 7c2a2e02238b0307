"""Front-end contract: flags, files, exit codes, determinism, round trips."""

import contextlib
import dataclasses
import io
import json
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxramp import adiabatic, classical, cli, reduced, spectral
from fluxramp.errors import NoConvergence

import reference as ref


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, line.split(","))) for line in fh if line.strip()]
    return header, np.asarray(rows)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def read_json(path):
    # strict: NaN, Infinity and -Infinity are not JSON
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def test_classical_roundtrip_and_exit(tmp_path):
    out = str(tmp_path / "run")
    code = run(["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
                "--s-end", "20", "--tol", "1e-12", "--samples", "201",
                "--out", out])
    assert code == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["s", "qx", "qy", "px", "py", "cx", "cy", "H", "K", "I1"]
    assert rows.shape == (201, 10)
    # K column constant, I1 - H linear with slope phi
    k = rows[:, 8]
    assert np.max(np.abs(k - k[0])) < 1e-9
    summary = read_json(out + ".json")
    assert summary["puncture_hit"] is False
    assert abs(summary["slope"] - 0.5) < 1e-8
    assert_positive_counters(summary["diagnostics"])


def assert_positive_counters(diagnostics):
    assert set(diagnostics) == {"rhs_evals", "steps", "rejected_steps"}
    for value in diagnostics.values():
        assert isinstance(value, int) and value > 0


def test_classical_single_row_when_span_empty(tmp_path):
    out = str(tmp_path / "static")
    code = run(["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6",
                "--s-start", "2", "--s-end", "2", "--out", out])
    assert code == 0
    _, rows = read_csv(out + ".csv")
    assert rows.shape[0] == 1


def test_classical_phi_zero_rejected(tmp_path):
    code = run(["classical", "--phi", "0", "--q0", "1,0", "--p0", "0,0.6",
                "--s-end", "5", "--out", str(tmp_path / "x")])
    assert code == 2


def test_classical_puncture_exit(tmp_path, monkeypatch):
    # the zero-flux circle through the origin, with a widened guard so the
    # crossing is resolvable; exit code 3 and partial data on disk
    monkeypatch.setattr(classical, "R_GUARD", 0.05)
    out = str(tmp_path / "hit")
    code = run(["classical", "--phi", "1e-300", "--q0", "2,0", "--p0", "0,0",
                "--s-end", "8", "--samples", "65", "--tol", "1e-12", "--out", out])
    assert code == 3
    summary = read_json(out + ".json")
    assert summary["puncture_hit"] is True and summary["s_hit"] is not None
    assert_positive_counters(summary["diagnostics"])
    _, rows = read_csv(out + ".csv")
    assert rows.shape[0] >= 1


def test_classical_puncture_line(tmp_path, monkeypatch, capsys):
    # the partial files are written, then the event is reported in main's line
    monkeypatch.setattr(classical, "R_GUARD", 0.05)
    assert run(["classical", "--phi", "1e-300", "--q0", "2,0", "--p0", "0,0",
                "--s-end", "8", "--samples", "65", "--tol", "1e-12",
                "--out", str(tmp_path / "hit")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("puncture event: trajectory reached the puncture guard at s = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("span, skipped", [
    (["--s-start", "1500", "--s-end", "0"], "a0"),
    (["--s-end", "-100"], "H_over_abs_s"),
])
def test_classical_analysis_follows_the_trajectory(tmp_path, span, skipped):
    # a run that starts past s = 1e3 but ends at 0, and one that stops at
    # s = -1e2 exactly, meet neither asymptotic regime as the library checks
    # it: the analysis is left out and the run succeeds
    out = str(tmp_path / "span")
    code = run(["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
                *span, "--out", out])
    assert code == 0
    summary = read_json(out + ".json")
    assert summary.get(skipped) is None
    assert summary["slope"] is not None


CLASSICAL_KEYS = {"phi", "s_start", "s_end", "tol", "puncture_hit", "s_hit", "s0",
                  "slope", "K_drift", "a0", "drift_angle", "H_limit", "angle_residual",
                  "diagnostics"}


@pytest.mark.parametrize("s_end, forward, backward", [
    ("2000", True, False),
    ("-1000", False, True),
    ("-100", False, False),
])
def test_classical_json_key_set(tmp_path, s_end, forward, backward):
    # the README's contract: the forward keys are always present (null below
    # FORWARD_S_MIN), the two backward keys only once the run reaches below
    # BACKWARD_S_MAX
    out = str(tmp_path / "keys")
    assert run(["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
                f"--s-end={s_end}", "--out", out]) == 0
    summary = read_json(out + ".json")
    assert set(summary) == CLASSICAL_KEYS | (
        {"H_over_abs_s", "q_over_sqrt_abs_s"} if backward else set())
    nulls = {summary[key] is None for key in ("a0", "drift_angle", "H_limit",
                                              "angle_residual")}
    assert nulls == {not forward}


def test_classical_unsettled_forward_tail_still_writes_json(tmp_path, capsys):
    # the run reaches FORWARD_S_MIN but the tail of H has not settled: the
    # JSON is written first, forward keys null, then the run exits 1
    out = str(tmp_path / "tail")
    assert run(["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
                "--s-end", "1000", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: tail of H has not settled")
    assert err.count("\n") == 1
    summary = read_json(out + ".json")
    assert set(summary) == CLASSICAL_KEYS
    assert all(summary[key] is None for key in ("a0", "drift_angle", "H_limit",
                                                "angle_residual"))


def test_reduced_degenerate_fit_still_writes_json(tmp_path, capsys):
    # c1 = c2 = 0 leaves no homogeneous amplitude to fit: the JSON is
    # written first, the fit's keys null, then the run exits 1
    out = str(tmp_path / "flat")
    assert run(["reduced", "--phi", "0.5", "--c1", "0", "--c2", "0", "--s-max", "1000",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: degenerate amplitude")
    assert err.count("\n") == 1
    summary = read_json(out + ".json")
    assert all(summary[key] is None for key in ("c1_fit", "c2_fit", "a0"))
    assert summary["residual_sup"] <= 1e-9


def test_classical_determinism(tmp_path):
    args = ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6",
            "--s-end", "10", "--samples", "101"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert open(out1 + ".csv", "rb").read() == open(out2 + ".csv", "rb").read()
    assert open(out1 + ".json", "rb").read() == open(out2 + ".json", "rb").read()


def test_reduced_forced_zero_f(tmp_path, monkeypatch):
    monkeypatch.setattr(reduced, "f_nonlinearity", ref.zero_f)
    out = str(tmp_path / "red0")
    code = run(["reduced", "--phi", "0.5", "--c1", "1", "--c2", "-2", "--out", out])
    assert code == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["s", "x1", "x2", "residual1", "residual2"]
    assert np.max(np.abs(rows[:, 3])) < 1e-12
    assert np.max(np.abs(rows[:, 4])) < 1e-12
    assert np.allclose(rows[:, 1], ref.homogeneous(1, rows[:, 0], 1.0, -2.0), atol=1e-12)


def test_reduced_default_run_and_crosscheck(tmp_path):
    out = str(tmp_path / "red")
    code = run(["reduced", "--phi", "0.5", "--picard-tol", "1e-8",
                "--crosscheck", "--out", out])
    assert code == 0
    summary = read_json(out + ".json")
    assert summary["residual_sup"] <= 10 * 1e-8
    assert summary["ode_deviation"] <= 1e-6
    assert summary["classical_deviation"] <= 1e-5
    assert summary["iters"] >= 2
    # counters: one delta per sweep, the last within tolerance; the CSV has
    # a row per solution node; the residual has twice the panels, 8 nodes each
    diag = summary["diagnostics"]
    assert set(diag) == {"picard_deltas", "quad_nodes", "residual_nodes"}
    assert len(diag["picard_deltas"]) == summary["iters"]
    assert diag["picard_deltas"][-1] <= 1e-8
    assert diag["quad_nodes"] == read_csv(out + ".csv")[1].shape[0] == 560 * 6
    assert diag["residual_nodes"] == 2 * 560 * 8


def test_reduced_bessel_points(tmp_path, monkeypatch):
    # J0, J1, Y0, Y1 once at each solve node (the sweep's, which the residual
    # and the constant fit reuse) and J1, Y1 at each residual node
    points = []

    def counting(fn):
        def wrapper(order, x):
            points.append(np.size(x))
            return fn(order, x)
        return wrapper

    for name in ("bessel_j", "bessel_y"):
        monkeypatch.setattr(reduced, name, counting(getattr(reduced, name)))
    out = str(tmp_path / "pts")
    assert run(["reduced", "--phi", "0.5", "--s-max", "1000", "--crosscheck",
                "--out", out]) == 0
    diag = read_json(out + ".json")["diagnostics"]
    assert sum(points) == 4 * diag["quad_nodes"] + 2 * diag["residual_nodes"]


def test_reduced_no_convergence_exit(tmp_path, monkeypatch):
    import fluxramp.reduced as rd
    from fluxramp.errors import NoConvergence

    def stalls(*args, **kwargs):
        raise NoConvergence("stalled", iterations=80, last_delta=1e-7)

    monkeypatch.setattr(rd, "picard_solve", stalls)
    code = run(["reduced", "--phi", "0.5", "--out", str(tmp_path / "rednc")])
    assert code == 4


def test_reduced_no_convergence_line(tmp_path, monkeypatch, capsys):
    def stalls(*args, **kwargs):
        raise NoConvergence("stalled", iterations=80, last_delta=1e-7)

    monkeypatch.setattr(reduced, "picard_solve", stalls)
    assert run(["reduced", "--phi", "0.5", "--out", str(tmp_path / "rednc")]) == 4
    assert capsys.readouterr().err == ("no convergence: stalled "
                                       "(iterations=80, last delta=1e-07)\n")


@pytest.mark.parametrize("argv", [
    ["reduced", "--phi", "nan"],
    ["adiabatic", "--s-end", "inf"],
    ["adiabatic", "--s-end", "nan"],
    ["adiabatic", "--epsilons", "0.1,0.1"],
    ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6", "--s-end", "inf"],
    ["adiabatic", "--levels", "8", "--out", "{tmp}/missing/x"],
    ["spectral", "--s", "1", "--levels", "8", "--out", "{tmp}/missing/x"],
    ["spectral", "--s", "30", "--levels", "8", "--check", "oracle"],
    ["spectral", "--s", "1,30", "--levels", "64", "--check", "all"],
    ["classical", "--config", "{tmp}/missing.conf", "--phi", "0.5", "--q0", "1,0",
     "--p0", "0,0.6", "--s-end", "1"],
    ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6", "--s-end", "5",
     "--samples", "0"],
    ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6", "--s-end", "5",
     "--samples=-5"],
    ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6", "--s-end", "5",
     "--samples", "1"],
    ["reduced", "--phi", "0.5", "--c1", "nan", "--s-max", "120"],
    ["reduced", "--phi", "0.5", "--c2", "inf", "--s-max", "120"],
    ["adiabatic", "--epsilons", "0.2,0.1", "--levels", "4", "--samples", "3",
     "--s-end", "1e-160"],
    ["adiabatic", "--epsilons", "1e-300", "--levels", "4", "--samples", "3"],
    ["adiabatic", "--epsilons", "1e-6"],
    ["adiabatic", "--epsilons", "0.2,1e-6", "--levels", "4", "--samples", "3"],
    ["reduced", "--phi", "0.5", "--s-max", "1e9"],
    ["adiabatic", "--epsilons", "1e-310", "--levels", "4", "--samples", "3"],
    ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "1e200,1e200", "--s-end", "0",
     "--samples", "5"],
    ["spectral", "--s", "1", "--levels", "100000", "--check", "coupling"],
    ["spectral", "--s", "1", "--levels", "1" + "0" * 40, "--check", "gamma"],
    ["adiabatic", "--levels", "100000"],
    ["adiabatic", "--levels", "4", "--samples", "100000000"],
    # the panel budget is tested before the squared sample spacing overflows
    ["adiabatic", "--levels", "4", "--epsilons", "0.1", "--s-end", "1e300"],
    ["adiabatic", "--levels", "4", "--epsilons", "0.1", "--s-end", "1e200",
     "--samples", "2"],
    # spans above classical.MAX_SPAN, which would integrate for hours or forever
    ["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9", "--s-end", "1e18"],
    ["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9", "--s-end=-1e300"],
    ["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
     "--s-start", "1e18", "--s-end", "0"],
    ["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "0,0.6", "--s-end", "5",
     "--samples", "100000000"],
    # every sample interval takes a panel: 100001 intervals, 200 panel widths
    ["adiabatic", "--epsilons", "0.2", "--levels", "4",
     "--samples", str(adiabatic.MAX_PANELS + 2)],
    # malformed values in a config file, in vector and list flags, and
    # malformed command lines (one line each, no usage text)
    ["classical", "--config", "{conf}/phi.conf", "--q0", "1,0", "--p0", "0,0.6",
     "--s-end", "1"],
    ["spectral", "--config", "{conf}/levels.conf", "--s", "1"],
    ["spectral", "--config", "{conf}/check.conf", "--s", "1", "--levels", "8"],
    ["classical", "--phi", "0.5", "--q0", "1,abc", "--p0", "0,0.6", "--s-end", "1"],
    ["spectral", "--s", "1,abc", "--levels", "8"],
    ["adiabatic", "--epsilons", "0.1,abc", "--levels", "4", "--samples", "3"],
    ["classical", "--phi", "abc", "--q0", "1,0", "--p0", "0,0.6", "--s-end", "1"],
    ["reduced", "--phi", "0.5", "--no-such-flag"],
    ["spectral", "--s", "1", "--check", "none"],
    ["classical", "--q0", "1,0"],
    ["no-such-study"],
    # energies 2n + 2s + 1 beyond 2^53, which rounding merges in pairs
    ["spectral", "--s", "1e16", "--levels", "8", "--check", "gamma"],
    # repeated flux values, -0 equal to 0 among them
    ["spectral", "--s", "0.5,0.5,1", "--levels", "8", "--check", "coupling"],
    ["spectral", "--s", "0,-0", "--levels", "8", "--check", "coupling"],
])
def test_bad_input_rejected_before_any_work(tmp_path, tmp_path_factory, monkeypatch,
                                            capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("computation started on invalid input")

    monkeypatch.setattr(reduced, "_PanelQuadrature", unreachable)
    monkeypatch.setattr(adiabatic, "_panel_integrals", unreachable)
    monkeypatch.setattr(classical, "solve_ivp", unreachable)
    monkeypatch.setattr(spectral, "analytic_spectrum", unreachable)
    conf = tmp_path_factory.mktemp("conf")
    (conf / "phi.conf").write_text("phi = abc\n")
    (conf / "levels.conf").write_text("levels = 8.5\n")
    (conf / "check.conf").write_text("check = none\n")
    argv = [arg.replace("{tmp}", str(tmp_path)).replace("{conf}", str(conf))
            for arg in argv]
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "bad")]
    code = run(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_spectral_eigenvalues_and_checks(tmp_path):
    out = str(tmp_path / "spec")
    code = run(["spectral", "--s", "0", "--levels", "8", "--check", "kernel",
                "--out", out])
    assert code == 0
    header, rows = read_csv(out + ".csv")
    assert header == ["s"] + [f"E{n}" for n in range(8)]
    assert np.allclose(rows[0, 1:], [1, 3, 5, 7, 9, 11, 13, 15], atol=0)
    report = read_json(out + ".json")
    kernel = report["checks"]["0"]["kernel"]
    assert kernel["bound"] == 2.0 and kernel["pass"] is True
    assert kernel["norm"] <= 2.0 + 1e-6
    # deterministic counters: the two grids and the definiteness tests
    # bisection spent on each
    assert kernel["grid_points"] == [spectral.KERNEL_GRID, 2 * spectral.KERNEL_GRID]
    assert len(kernel["bisection_probes"]) == 2
    assert all(isinstance(n, int) and n > 0 for n in kernel["bisection_probes"])


def test_spectral_all_checks_small(tmp_path):
    out = str(tmp_path / "specall")
    code = run(["spectral", "--s", "1", "--levels", "12", "--check", "all",
                "--out", out])
    assert code == 0
    report = read_json(out + ".json")
    entry = report["checks"]["1"]
    assert set(entry) == {"oracle", "kernel", "coupling", "gamma"}
    assert report["pass"] is True
    # the oracle solves the checked lower half of the 12 levels
    oracle = entry["oracle"]
    assert oracle["levels_solved"] == 6
    assert (oracle["cells_coarse"], oracle["cells_fine"]) == (12000, 48000)
    assert oracle["bisection_tol"] == spectral.FD_BISECTION_TOL


def test_spectral_oracle_detects_shifted_closed_form(tmp_path, monkeypatch):
    # the finite-volume solve never reads the closed form, so a 1e-5 shift
    # of the closed-form energies must fail the 1e-6 oracle tolerance
    real = spectral.analytic_spectrum

    def shifted(params):
        fam = real(params)
        return dataclasses.replace(fam, energies=fam.energies + 1e-5)

    monkeypatch.setattr(spectral, "analytic_spectrum", shifted)
    out = str(tmp_path / "shift")
    code = run(["spectral", "--s", "0.5", "--levels", "8", "--check", "oracle",
                "--out", out])
    assert code == 5
    oracle = read_json(out + ".json")["checks"]["0.5"]["oracle"]
    assert oracle["pass"] is False
    assert 0.9e-5 <= oracle["eigenvalue_error"] <= 1.1e-5


def test_spectral_oracle_inside_double_range(tmp_path):
    # s = 20 at 8 levels stays inside the range of the oracle's weights
    # (the limit is near s = 25.6); s = 30 is rejected up front above
    out = str(tmp_path / "s20")
    code = run(["spectral", "--s", "20", "--levels", "8", "--check", "oracle",
                "--out", out])
    assert code == 0
    assert read_json(out + ".json")["checks"]["20"]["oracle"]["pass"] is True


def test_spectral_oracle_passes_just_below_double_range_limit(tmp_path):
    # on the 48k-cell vector grid the product of the two innermost masses
    # underflows from s = 25.612 at 8 levels; just below it the subnormal
    # masses near the origin are harmless and the oracle still agrees
    s = 25.61
    assert spectral.fd_grid_representable(s, spectral.fd_r_max(s, 8),
                                          4 * spectral.FD_CELLS)
    assert not spectral.fd_grid_representable(25.62, spectral.fd_r_max(25.62, 8),
                                              4 * spectral.FD_CELLS)
    out = str(tmp_path / "edge")
    code = run(["spectral", "--s", str(s), "--levels", "8", "--check", "oracle",
                "--out", out])
    assert code == 0
    [oracle] = [entry["oracle"] for entry in read_json(out + ".json")["checks"].values()]
    assert oracle["pass"] is True


def test_adiabatic_zero_coupling_and_single_epsilon(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(adiabatic, "pi_matrix", ref.zero_pi)
        out = str(tmp_path / "ad0")
        code = run(["adiabatic", "--epsilons", "0.2,0.1", "--levels", "8",
                    "--samples", "6", "--out", out])
    # no exponent can be fitted to zero norms: the NaN exponents fail the
    # window, and the JSON writes them as null, not NaN
    assert code == 5
    _, rows = read_csv(out + ".csv")
    assert np.max(np.abs(rows[:, 2:5])) == 0.0
    summary = read_json(out + ".json")
    assert summary["exponents"] == dict.fromkeys(
        ("twisted_integral", "corrector_minus_id", "uw_minus_uad"))
    assert summary["pass"] is False
    out = str(tmp_path / "ad1")
    code = run(["adiabatic", "--epsilons", "0.1", "--levels", "8",
                "--samples", "6", "--out", out])
    assert code == 0
    summary = read_json(out + ".json")
    assert summary["exponents"] is None and summary["pass"] is True


def test_adiabatic_sweep_small(tmp_path):
    out = str(tmp_path / "ad")
    code = run(["adiabatic", "--epsilons", "0.2,0.1", "--levels", "16",
                "--samples", "11", "--out", out])
    assert code == 0
    summary = read_json(out + ".json")
    for v in summary["exponents"].values():
        assert 0.8 <= v <= 1.2
    header, rows = read_csv(out + ".csv")
    assert header == ["epsilon", "s", "norm_I", "norm_C_minus_id",
                      "norm_Uw_minus_Uad", "unitarity_defect"]
    # exact identity between the two distance columns
    assert np.max(np.abs(rows[:, 3] - rows[:, 4])) < 1e-13


def test_adiabatic_diagnostics_count_panels(tmp_path):
    # panels are at most min(0.01, eps/4) wide and every sample is a panel
    # edge: eps 0.03 splits each of the 40 sample intervals (0.05) into 7
    # panels, eps 0.02 into 10
    out = str(tmp_path / "diag")
    code = run(["adiabatic", "--epsilons", "0.02,0.03", "--levels", "8",
                "--samples", "41", "--out", out])
    assert code == 0
    summary = read_json(out + ".json")
    assert summary["epsilons"] == [0.03, 0.02]
    assert summary["diagnostics"] == {"filon_panels": [280, 400]}


@pytest.mark.parametrize("s", ["171", "200"])
def test_spectral_coupling_check_at_large_s(tmp_path, capsys, s):
    # Gamma(s+1) overflows a double from s = 171 on; the closed form must
    # stay finite there, so the run ends in a frozen exit code: the
    # coupling envelope window fails at this s (exit 5), the JSON is written
    out = str(tmp_path / "big")
    code = run(["spectral", "--s", s, "--levels", "8", "--check", "coupling",
                "--out", out])
    assert code == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    report = read_json(out + ".json")
    coupling = report["checks"][s]["coupling"]
    assert report["pass"] is False
    assert coupling["hermiticity_defect"] == 0.0 and coupling["diagonal_max"] == 0.0
    assert np.all(np.isfinite(coupling["norms"]))


@pytest.mark.filterwarnings("error")
def test_spectral_coupling_check_past_running_product_underflow(tmp_path, capsys):
    # at s = 1e7 and 64 levels prod_{k<N} k/(k+s) underflows a double; Pi
    # stays finite and exactly hermitian, and the envelope window fails
    out = str(tmp_path / "huge")
    code = run(["spectral", "--s", "1e7", "--levels", "64", "--check", "coupling",
                "--out", out])
    assert code == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    coupling = read_json(out + ".json")["checks"]["10000000"]["coupling"]
    assert coupling["hermiticity_defect"] == 0.0 and coupling["diagonal_max"] == 0.0
    # the envelope factor overflows: null, not Infinity
    assert coupling["envelope_min"] is None
    assert np.all(np.isfinite(coupling["norms"])) and coupling["pass"] is False


@pytest.mark.filterwarnings("error")
def test_spectral_gamma_check_past_difference_step_resolution(tmp_path, capsys):
    # from s = 2^44 on, s +/- 1e-3 rounds to s; d_s Gamma in closed form
    # stays finite there, and the commutator gate passes (exit 0)
    out = str(tmp_path / "far")
    code = run(["spectral", "--s", "1e14", "--levels", "8", "--check", "gamma",
                "--out", out])
    assert code == 0
    assert capsys.readouterr().err == ""
    gamma = read_json(out + ".json")["checks"]["100000000000000"]["gamma"]
    assert gamma["pass"] is True
    dgam = gamma["gamma_derivative_norm"]
    assert dgam is not None and 0.0 < dgam < np.inf
    assert gamma["bound_constant"] == gamma["gamma_norm"] + dgam


def test_spectral_all_checks_at_two_levels(tmp_path):
    # two levels are admitted, so every coupling truncation is clipped to 2
    out = str(tmp_path / "two")
    code = run(["spectral", "--s", "1", "--levels", "2", "--check", "all", "--out", out])
    assert code == 0
    report = read_json(out + ".json")
    assert report["pass"] is True
    assert report["checks"]["1"]["coupling"]["truncations"] == [2, 2, 2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [["--phi", "1e300"],
                                    ["--phi", "0.5", "--c1", "1e300"],
                                    ["--phi", "0.5", "--c2=-1e300"]])
def test_reduced_overflowing_nonlinearity_is_a_validation_error(tmp_path, monkeypatch,
                                                                capsys, values):
    # F's root overflows on the homogeneous part: refused before the first
    # Picard sweep's quadrature, in one line naming the inputs, no warning
    def unreachable(*args, **kwargs):
        raise AssertionError("a Picard sweep started")

    monkeypatch.setattr(reduced._Refinement, "tails", unreachable)
    out = str(tmp_path / "huge")
    code = run(["reduced", *values, "--s-max", "120", "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and err.count("\n") == 1
    assert "overflows" in err and "phi" in err and "c1" in err and "c2" in err
    assert not (tmp_path / "huge.csv").exists()


@pytest.mark.parametrize("s_start, code", [("1e-3", 2), ("0.01", 0)])
def test_reduced_s_start_floor(tmp_path, capsys, s_start, code):
    # below reduced.S_START_MIN the sweep does not contract: refused in one
    # line naming the floor, where it would otherwise exit 4 after 80 sweeps
    out = str(tmp_path / "start")
    assert run(["reduced", "--phi", "0.5", "--s-max", "120", "--s-start", s_start,
                "--out", out]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert f"{reduced.S_START_MIN:g}" in err
        assert not (tmp_path / "start.csv").exists()
    else:
        assert err == "" and read_json(out + ".json")["iters"] < reduced.MAX_ITERS // 2


def test_reduced_non_finite_delta_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reduced, "f_nonlinearity",
                        lambda s, x1, x2, phi: np.full_like(s, np.nan))
    code = run(["reduced", "--phi", "0.5", "--out", str(tmp_path / "rednan")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_classical_overflowing_step_guess_exit(tmp_path, capsys):
    # H = |p|^2/2 is finite at |p0| = 1e150, but the step guess's scaled
    # RHS norm overflows: a StepFailure, not a ZeroDivisionError
    code = run(["classical", "--phi", "0.5", "--q0", "1,0", "--p0", "1e150,0",
                "--s-end", "1", "--out", str(tmp_path / "huge")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fault, code, prefix", [("one_step", 4, "no convergence:"),
                                                 ("next_level", 1, "numerical failure:")])
def test_spectral_oracle_inverse_iteration_failure_exit(tmp_path, monkeypatch, capsys,
                                                        fault, code, prefix):
    # modes left unconverged (here by a budget of one Rayleigh-quotient step)
    # exit 4; modes that left their shifts (here each first step solved one
    # level up) are a grid too coarse, exit 1; one line each
    from scipy.linalg import lapack

    if fault == "one_step":
        monkeypatch.setattr(spectral, "FD_RQI_STEPS", 1)
    else:
        real = lapack.dgtsv

        def solve(dl, d, du, b, **flags):
            if b.min() == b.max():  # the start vector of a mode
                d -= 2.0
            return real(dl, d, du, b, **flags)

        monkeypatch.setattr(lapack, "dgtsv", solve)
    assert run(["spectral", "--s", "0.5", "--levels", "8", "--check", "oracle",
                "--out", str(tmp_path / "rqi")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err


def test_spectral_oracle_unverifiable_family_exit(tmp_path, monkeypatch, capsys):
    # at 768 levels (s = 1) the 12k energies sit up to 1.3 from their 24k
    # levels, more than half a gap, and Rayleigh-quotient iteration started
    # there leaves modes unconverged: exit 4, one line.  32 levels on 140
    # coarse cells put the starts up to 1.07 off in the same way
    monkeypatch.setattr(spectral, "FD_CELLS", 140)
    assert run(["spectral", "--s", "1", "--levels", "32", "--check", "oracle",
                "--out", str(tmp_path / "coarse")]) == 4
    assert capsys.readouterr().err == ("no convergence: Rayleigh-quotient iteration left "
                                       "1 of 16 oracle modes unconverged on 280 cells\n")


def test_spectral_check_failure_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_check_kernel",
                        lambda s: {"bound": 2.0, "norm": 3.0, "pass": False})
    code = run(["spectral", "--s", "0", "--levels", "4", "--check", "kernel",
                "--out", str(tmp_path / "fail")])
    assert code == 5


def test_adiabatic_scaling_failure_exit(tmp_path, monkeypatch):
    from fluxramp import adiabatic as ad_mod

    real = ad_mod.run_sweep

    def skewed(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(
            res, exponents={"twisted_integral": 0.2, "corrector_minus_id": 1.0,
                            "uw_minus_uad": 1.0})

    monkeypatch.setattr(ad_mod, "run_sweep", skewed)
    code = run(["adiabatic", "--epsilons", "0.2,0.1", "--levels", "8",
                "--samples", "6", "--out", str(tmp_path / "skew")])
    assert code == 5


def test_config_file_seeds_flags_and_flags_win(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("phi = 0.5\nq0 = 1,0\np0 = 0,0.6\ns_end = 5\n"
                    f"out = {tmp_path / 'cfg'}\n# comment\n")
    assert run(["classical", "--config", str(conf)]) == 0
    assert read_json(str(tmp_path / "cfg") + ".json")["s_end"] == 5.0
    assert run(["classical", "--config", str(conf), "--s-end", "6"]) == 0
    assert read_json(str(tmp_path / "cfg") + ".json")["s_end"] == 6.0


# one small run per subcommand, as config-file settings: a negative
# vector component in first place, a list, and a switch
CONFIG_RUNS = [
    ("classical", {"phi": "0.5", "q0": "1.3,-0.4", "p0": "-0.2,0.9", "s_end": "5",
                   "samples": "33"}),
    ("reduced", {"phi": "0.5", "c2": "-0.5", "s_max": "120", "crosscheck": "yes"}),
    ("spectral", {"s": "0.5,2", "levels": "8", "check": "coupling"}),
    ("adiabatic", {"epsilons": "0.2,0.1", "levels": "4", "samples": "5", "s_end": "0.5"}),
]


@pytest.mark.parametrize("command, settings", CONFIG_RUNS,
                         ids=[command for command, _ in CONFIG_RUNS])
def test_config_file_and_flags_write_the_same_bytes(tmp_path, command, settings):
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        flags.append(flag if value == "yes" else f"{flag}={value}")
    by_flags, by_config = str(tmp_path / "flags"), str(tmp_path / "config")
    assert run([command, *flags, "--out", by_flags]) == 0
    assert run([command, "--config", str(conf), "--out", by_config]) == 0
    for ext in (".csv", ".json"):
        assert open(by_flags + ext, "rb").read() == open(by_config + ext, "rb").read()
    assert ("ode_deviation" in read_json(by_config + ".json")) == (command == "reduced")


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("not_a_flag = 1\n")
    assert run(["classical", "--config", str(conf), "--phi", "0.5",
                "--q0", "1,0", "--p0", "0,1", "--s-end", "1",
                "--out", str(tmp_path / "x")]) == 2


def test_seventeen_digit_floats_roundtrip(tmp_path):
    out = str(tmp_path / "rt")
    run(["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
         "--s-end", "3", "--samples", "31", "--out", out])
    with open(out + ".csv") as fh:
        fh.readline()
        first = fh.readline().strip().split(",")
    # %.17g representation reparses to the identical double
    assert float(first[1]) == 1.3 and float(first[2]) == -0.4


CSV_BLOCK_ROWS = cli._CSV_VALUES // 4  # rows of the four-column tables below


@pytest.mark.parametrize("n_rows", [0, 1, 2 * CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1,
                                    4 * CSV_BLOCK_ROWS + 3])
def test_csv_writer_matches_per_value_format(tmp_path, n_rows):
    # reference: one f-string per value, as the CSV contract states it
    special = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0,
               5e-324, 1e16, 1e17, 1e-5, 1e-4, 0.1]
    rng = np.random.default_rng(n_rows)
    values = np.concatenate([special, rng.standard_normal(n_rows) * 1e3])
    floats = values[:n_rows]
    columns = [floats,
               [np.float64(v) for v in floats[::-1]],
               list(range(-7, n_rows - 7)),
               np.arange(n_rows + 5, dtype=float)]  # rows run to the shortest
    path = tmp_path / "w.csv"
    cli._write_csv(str(path), ["a", "b", "c", "d"], columns)
    lines = ["a,b,c,d"] + [",".join(f"{float(v):.17g}" for v in row)
                           for row in zip(*columns)]
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


def assert_csv_text(values, n_cols=1):
    """``cli._csv_block`` writes ``b"%.17g" % v`` for each value, and warns not."""
    values = np.asarray(values, dtype=float).ravel()
    values = values[:values.size - values.size % n_cols]
    expected = ref.csv_text(values, n_cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = cli._csv_block(values, n_cols, cli._format_tables())
    if text != expected:
        got, want = text.split(b"\n"), expected.split(b"\n")
        bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
        assert bad is None, (values.reshape(-1, n_cols)[bad].tolist(), got[bad], want[bad])
    assert text == expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_csv_text_of_any_floats(values):
    assert_csv_text(values)


def test_csv_text_of_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_csv_text([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                     -powers], n_cols=4)


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17, 1e-250, 1e250])
def test_csv_text_at_format_switches(switch):
    # %g changes notation at 1e-4 and 1e17 (after rounding to 17 digits);
    # 1e-5 and 1e16 bound the other exponents; 1e-250 and 1e250 bound the
    # vectorised path
    around = np.array([switch, np.nextafter(switch, 0), np.nextafter(switch, np.inf)])
    assert_csv_text(np.concatenate([around, -around]), n_cols=3)


def test_csv_text_of_ties_zeros_and_integers():
    # 18th-digit ties round half to even; integral values keep the zeros
    # before the point
    assert_csv_text([1234567890123456.75, 1234567890123456.25, 0.5, 2.5, 1.25,
                     0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     10.0, 1200.0, 1e15, 99999999999999984.0, 12345678901234567e3,
                     100.5, 0.001, 0.00012, -0.5, 7.0])


def test_csv_text_of_random_bit_patterns():
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    decades = rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 25, 100_000)
    assert_csv_text(bits.view(np.float64), n_cols=5)
    assert_csv_text(decades, n_cols=3)


# Fuzz: small valid runs of the four studies with one numeric option set to
# an extreme.  Each extreme is refused by a validator or runs cheaply (all
# 153 cases together take about 2 s on one core); a run that reaches the
# CPU-time limit is a hang.  The limit counts the process's own CPU time,
# so a loaded machine does not trip it, while a busy loop still does.
FUZZ_EXTREMES = ("nan", "inf", "-inf", "1e300", "-1e300", "1e18", "5e-324", "0", "-1")
FUZZ_RUNS = [
    (["classical", "--phi", "0.5", "--q0", "1.3,-0.4", "--p0", "0.2,0.9",
      "--s-end", "5", "--samples", "33"],
     ["--phi", "--s-start", "--s-end", "--tol", "--samples"]),
    (["reduced", "--phi", "0.5", "--s-max", "120"],
     ["--phi", "--c1", "--c2", "--s-start", "--s-max", "--picard-tol"]),
    (["spectral", "--s", "0.5", "--levels", "4"], ["--s", "--levels"]),
    (["adiabatic", "--levels", "4", "--epsilons", "0.2,0.1", "--samples", "5",
      "--s-end", "0.5"],
     ["--s-end", "--epsilons", "--levels", "--samples"]),
]
FUZZ_TIME_LIMIT = 10.0


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread once the process has spent
    ``seconds`` of CPU time (user and system) inside the block."""
    def expire(signum, frame):
        raise TimeoutError(f"the run took more than {seconds} s of CPU time")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@pytest.mark.parametrize("argv, options", FUZZ_RUNS, ids=[argv[0] for argv, _ in FUZZ_RUNS])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_one_extreme_option(tmp_path_factory, argv, options, data):
    option = data.draw(st.sampled_from(options))
    value = data.draw(st.sampled_from(FUZZ_EXTREMES))
    if option in argv:
        at = argv.index(option)
        argv = argv[:at] + argv[at + 2:]
    argv = argv + [f"{option}={value}", "--out", str(tmp_path_factory.mktemp("fuzz") / "x")]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), time_limit(FUZZ_TIME_LIMIT):
        warnings.simplefilter("always")
        code = run(argv)
    assert code in range(6)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
