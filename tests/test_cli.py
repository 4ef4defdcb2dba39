import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from watched_decay import cli, dynamics
from watched_decay.cli import (
    ConfigError,
    RunConfig,
    _pool_size,
    apply_override,
    main,
    run,
)
from watched_decay.discretize import ToySpec, build_scalar_toy
from watched_decay.resolvent import REF_ORDER, TOL

TOY_FAST = {"n_modes": 120, "n_channels": 40}

#: One detector at retardation pi/2 along x, dipole parallel to the emitter's.
DETECTOR = {"position": [math.pi / 2.0, 0.0, 0.0],
            "dipole_dir": [0.0, 0.0, 1.0]}


#: Every run writes exactly these files.
ARTIFACTS = ["report.txt", "results.csv", "summary.json"]


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def run_twice(config, tmp_path):
    """Run config twice; assert identical artifacts, return the results."""
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    for name in ("summary.json", "results.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
    return read_summary(tmp_path / "a")["results"]


def test_module_entry_point_runs_without_runpy_warning():
    # The package must not import cli eagerly, or runpy warns on every
    # `python -m watched_decay.cli` run.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "watched_decay.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert "usage" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_import_loads_neither_scipy_nor_process_pool():
    # Every CLI call is a fresh process that pays for what cli imports:
    # scipy is not a run-time dependency, only a pooled sweep needs
    # multiprocessing, and only main's argument parsing needs argparse.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = ("import json, sys, watched_decay.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "watched_decay.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert "concurrent.futures.process" not in loaded
    assert "argparse" not in loaded


# -- configuration ---------------------------------------------------------

def test_config_round_trip():
    config = RunConfig(scenario="toy", toy={"gamma": 0.02}, seed=3,
                       t_max=50.0)
    assert RunConfig.from_dict(config.to_dict()) == config


def test_config_json_round_trip():
    config = RunConfig(scenario="shell", shell={"n_atoms": 10}, seed=1)
    again = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        RunConfig(scenario="explode")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"scenario": "toy", "bogus": 1})


def test_sweep_section_only_for_sweep_scenario():
    with pytest.raises(ConfigError):
        RunConfig(scenario="toy",
                  sweep={"parameter": "beta", "values": [0.1]})
    with pytest.raises(ConfigError):
        RunConfig(scenario="sweep")
    with pytest.raises(ConfigError):
        RunConfig(scenario="sweep",
                  sweep={"parameter": "gamma", "values": [0.1]})
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        RunConfig(scenario="sweep",
                  sweep={"parameter": "r", "values": [2.3], "bogus": 1})
    with pytest.raises(ConfigError, match="values must be list"):
        RunConfig(scenario="sweep", sweep={"parameter": "r", "values": 2.3})


def test_apply_override_nested_and_typed():
    cfg = {"scenario": "toy", "toy": {"gamma": 0.01}}
    out = apply_override(cfg, "toy.gamma=0.02")
    assert out["toy"]["gamma"] == 0.02
    assert cfg["toy"]["gamma"] == 0.01  # original untouched
    out = apply_override(cfg, "grid.scheme=uniform")
    assert out["grid"]["scheme"] == "uniform"
    out = apply_override(cfg, 'sweep={"parameter":"r","values":[1,2]}')
    assert out["sweep"]["values"] == [1, 2]
    with pytest.raises(ConfigError):
        apply_override(cfg, "no_equals_sign")


# -- scenarios -------------------------------------------------------------

def test_shell_scenario_artifacts(tmp_path):
    config = RunConfig(scenario="shell",
                       system={"beta": 0.01},
                       shell={"n_atoms": 100, "radius_z": math.pi / 2.0},
                       seed=5)
    run(config, tmp_path)
    summary = read_summary(tmp_path)
    assert summary["schema_version"] == 1
    results = summary["results"]
    assert results["u_shell_printed"] == pytest.approx(0.73946, abs=1e-5)
    assert (tmp_path / "report.txt").read_text().startswith("scenario:")
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "variant,u"


@pytest.mark.parametrize("system, shell, l_times_i, collective, flag", [
    ({}, {"n_atoms": 0}, "L*I = 0.05 -> ok", "0.0", "ok"),
    ({"beta": 0.4}, {"n_atoms": 0}, "L*I = 0.4 -> LARGE", "0.0", "ok"),
    ({}, {}, "L*I = 0.05 -> ok", "1.0132", "LARGE"),
    ({"beta": 0.01}, {"n_atoms": 10}, "L*I = 0.01 -> ok", "0.0202", "ok")],
    ids=["defaults", "strong", "collective_large", "collective_ok"])
def test_report_regime_lines(tmp_path, system, shell, l_times_i,
                             collective, flag):
    config = RunConfig(scenario="shell", system=system, shell=shell)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(config, tmp_path)
    # A collective deficit above 1 is a U below zero, which reduction_shell
    # warns about.
    assert any("below zero" in str(w.message) for w in caught) == (
        float(collective) > 1.0)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    start = lines.index("regime checks (smallness ratios, threshold 0.1):")
    assert lines[start + 1:start + 3] == [
        f"  {l_times_i}", "  mu_a^2 I / omega0 = 0.005 -> ok"]
    # The shell's own line: 1 - U is the sum of the additive deficits.
    line = lines[start + 3]
    assert line.startswith(
        f"  collective deficit 1 - U (isotropic) = {collective}")
    assert line.endswith(f" -> {flag}")


def test_shell_empty_gives_unity(tmp_path):
    config = RunConfig(scenario="shell", shell={"n_atoms": 0})
    run(config, tmp_path)
    results = read_summary(tmp_path)["results"]
    assert results["u_shell_printed"] == results["u_shell_isotropic"] == 1.0
    assert results["u_shell_placement_spread"] == 0.0


def test_toy_scenario_trajectory_contract(tmp_path):
    config = RunConfig(scenario="toy", toy=TOY_FAST, t_max=40.0)
    run(config, tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "t,re_a0,im_a0,survival,norm"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(1.0)
    assert float(first[4]) == pytest.approx(1.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ARTIFACTS


def test_trajectory_summary_carries_propagator_accuracy(tmp_path):
    results = run(RunConfig(scenario="toy", toy=TOY_FAST, t_max=40.0),
                  tmp_path)["results"]
    meta = dynamics.integrate(build_scalar_toy(ToySpec(**TOY_FAST)),
                              40.0).metadata
    assert results["error_bound"] == meta["error_bound"] < 1e-10
    assert results["n_terms"] == meta["n_terms"]
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert f"  n_terms = {meta['n_terms']}" in report


def test_vacuum_scenario_recovers_gamma(tmp_path):
    results = run_twice(RunConfig(scenario="vacuum"), tmp_path)
    # Criterion 1's bound: the fitted vacuum rate is within 3% of gamma.
    assert abs(results["fitted_rate"] - results["gamma"]) \
        <= 0.03 * results["gamma"]
    # The reported error is against the rate the fit should find, gamma Z.
    reference = results["gamma"] * results["z_factor"]
    assert results["relative_rate_error"] == pytest.approx(
        abs(results["fitted_rate"] - reference) / reference, rel=1e-12)
    assert results["relative_rate_error"] < 1e-3


def test_single_detector_scenario_slows_decay(tmp_path):
    config = RunConfig(scenario="single-detector",
                       system={"detector_atoms": [DETECTOR]})
    results = run_twice(config, tmp_path)
    assert results["fitted_rate"] < results["gamma"]
    # Criterion 2's bound: within 10% of gamma times the model's own U.
    target = results["gamma"] * results["u_discrete_kernels"]
    assert abs(results["fitted_rate"] - target) <= 0.10 * target
    # The fitted rate over gamma * Z, Z the vacuum's pole residue, is the
    # detector's U; the oracle kernel gives it to 3e-4 here.
    assert results["u_fitted"] == pytest.approx(results["u_oracle"], abs=1e-3)


def test_single_detector_long_horizon_keeps_u(tmp_path):
    # t_max = 1000 is clipped to 0.9 t_rec, which the grid resolves; on the
    # smallest-spacing horizon (t_rec 16,258) the fit ran to 800 and read
    # U 9.4e-3 low, 57% of the deficit, with no flag raised.
    short, long = (
        run(RunConfig(scenario="single-detector", t_max=t_max,
                      system={"detector_atoms": [DETECTOR]}),
            tmp_path / str(t_max))["results"]
        for t_max in (200.0, 1000.0))
    assert long["t_rec"] == pytest.approx(499.47, abs=0.01)
    assert long["u_fitted"] == pytest.approx(short["u_fitted"], abs=1e-3)


def test_compare_routes_reports_inversion_record(tmp_path):
    config = RunConfig(scenario="compare-routes", toy=TOY_FAST, t_max=40.0)
    results = run_twice(config, tmp_path)
    assert results["max_abs_diff"] < 1e-6
    assert results["inversion_error_estimate"] == (
        results["inversion_truncation_estimate"]
        + results["inversion_alias_estimate"])
    assert results["inversion_ref_order"] == REF_ORDER
    assert results["inversion_c_ref"]["re"] == 1.0
    assert results["inversion_sigma"] > 0.0
    assert results["inversion_omega_max"] >= 16.0
    report = (tmp_path / "a" / "report.txt").read_text().splitlines()
    assert f"  inversion_ref_order = {REF_ORDER}" in report


def test_default_compare_routes_error_estimate_meets_tol(tmp_path):
    results = run(RunConfig(scenario="compare-routes"), tmp_path)["results"]
    assert results["inversion_error_estimate"] <= TOL


def report_results(path) -> dict:
    """The results block of a report.txt, each value parsed as JSON."""
    lines = path.read_text().splitlines()
    block = lines[lines.index("results:") + 1:]
    block = block[:block.index("")] if "" in block else block
    return {key: json.loads(value)
            for key, value in (line.strip().split(" = ", 1)
                               for line in block)}


@pytest.mark.parametrize("config", [
    RunConfig(scenario="toy", toy=TOY_FAST, t_max=40.0),
    RunConfig(scenario="compare-routes", toy=TOY_FAST, t_max=40.0),
    RunConfig(scenario="shell", system={"beta": 0.01},
              shell={"n_atoms": 10}),
    RunConfig(scenario="vacuum"),
    RunConfig(scenario="sweep", toy=TOY_FAST, t_max=40.0,
              sweep={"parameter": "r", "values": [0.0, 2.3]})],
    ids=["toy", "compare-routes", "shell", "vacuum", "sweep"])
def test_report_renders_the_summary(tmp_path, config):
    # The report's results block is the summary's non-list fields, with
    # the digits summary.json holds.
    run(config, tmp_path)
    results = read_summary(tmp_path)["results"]
    assert report_results(tmp_path / "report.txt") == {
        k: v for k, v in results.items() if not isinstance(v, list)}


def test_plain_keeps_bools():
    assert cli._plain([True, np.bool_(False), 1, np.int64(2)]) == [
        True, False, 1, 2]
    assert type(cli._plain(True)) is bool
    assert json.dumps(cli._plain({"ok": np.bool_(True)})) == '{"ok": true}'


def test_byte_identical_reruns(tmp_path):
    config = RunConfig(scenario="toy", toy=TOY_FAST, t_max=40.0, seed=9)
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    for name in ARTIFACTS:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_sweep_orders_rows_and_keeps_failures(tmp_path):
    config = RunConfig(
        scenario="sweep", toy=TOY_FAST, t_max=40.0,
        sweep={"parameter": "n_atoms", "values": [0, -5, 10]},
        system={"beta": 0.01})
    run(config, tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0].startswith("n_atoms,")
    values = [ln.split(",")[0] for ln in lines[1:]]
    assert values == ["0", "-5", "10"]
    failed = lines[2]
    assert "ValueError" in failed
    summary = read_summary(tmp_path)
    assert summary["results"]["n_failed"] == 1
    for row in summary["results"]["rows"][::2]:  # the two good points
        assert {"u_shell_printed", "u_shell_isotropic",
                "u_shell_placement_spread"} <= set(row)
        assert "u_analytic" not in row


def test_sweep_n_modes_is_validated_per_point(tmp_path):
    # A point's value goes through the same config check as a plain run.
    config = RunConfig(scenario="sweep",
                       sweep={"parameter": "n_modes", "values": [400.9, 400]})
    run(config, tmp_path)
    rows = read_summary(tmp_path)["results"]["rows"]
    assert rows[0] == {"n_modes": 400.9, "error": "ConfigError: bad grid "
                       "section: n_modes must be int, got 400.9"}
    assert rows[1]["error"] == ""
    assert rows[1]["n_modes"] == 400
    # The error holds a comma; the CSV quotes it instead of splitting it.
    with open(tmp_path / "results.csv", newline="") as f:
        header, *lines = list(csv.reader(f))
    assert [len(line) for line in lines] == [len(header)] * 2
    assert lines[0][-1] == rows[0]["error"]


def test_sweep_beta_runs_dynamics(tmp_path):
    config = RunConfig(
        scenario="sweep", toy=TOY_FAST, t_max=40.0,
        sweep={"parameter": "beta", "values": [0.0, 0.05]})
    run(config, tmp_path, jobs=2)
    rows = read_summary(tmp_path)["results"]["rows"]
    assert [r["error"] for r in rows] == ["", ""]
    assert rows[1]["fitted_rate"] < rows[0]["fitted_rate"]


def test_sweep_pool_matches_serial(tmp_path):
    # The pool pickles RunConfig into each worker; its artifacts must
    # match the in-process loop's byte for byte.
    config = RunConfig(
        scenario="sweep", toy=TOY_FAST, t_max=40.0,
        sweep={"parameter": "r", "values": [0.0, 2.3, 4.6]})
    run(config, tmp_path / "serial", jobs=1)
    run(config, tmp_path / "pool", jobs=2)
    for name in ARTIFACTS:
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes(), name
    # A row is the point's value, its toy run's scalar summary fields and
    # the error, in that order; the header follows the row.
    header = (tmp_path / "serial" / "results.csv").read_text().splitlines()[0]
    row = cli._sweep_point((config, 0.0))
    assert header.split(",") == list(row)
    assert list(row)[0] == "r" and list(row)[-1] == "error"
    for row in read_summary(tmp_path / "serial")["results"]["rows"]:
        assert row["error"] == ""
        assert {"u_fitted", "u_discrete_kernels", "z_factor"} <= set(row)


# -- command line entry point ----------------------------------------------

def test_main_success_and_outputs(tmp_path, capsys):
    # The default shell's U is below zero, which is warned about, not fatal.
    with pytest.warns(UserWarning, match="below zero"):
        code = main(["shell", "--out", str(tmp_path / "o"), "--seed", "3"])
    assert code == 0
    assert (tmp_path / "o" / "summary.json").exists()
    doc = read_summary(tmp_path / "o")
    assert doc["seed"] == 3
    # The default shell: closed forms only, no sampled fields.
    results = doc["results"]
    assert results["u_shell_placement_spread"] == pytest.approx(0.109126,
                                                                abs=1e-6)
    assert not {"u_shell_mc", "u_shell_mc_stderr",
                "mc_samples"} & set(results)
    assert (tmp_path / "o" / "results.csv").read_text().splitlines()[0] \
        == "variant,u"
    # Oracle values in the normalization section print as plain floats.
    assert "np.float64(" not in (tmp_path / "o" / "report.txt").read_text()


def test_main_validation_failure(tmp_path, capsys):
    code = main(["vacuum", "--out", str(tmp_path / "o"),
                 "--set", "system.omega_i=1.5"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 1
    assert "omega_i" in err["message"]


@pytest.mark.parametrize("scenario, assignment", [
    ("shell", 'seed="abc"'), ("vacuum", 't_max="x"'),
    ("vacuum", 'grid.n_modes="abc"'), ("vacuum", "grid.n_modes=null"),
    ("toy", 'toy.n_modes="abc"'), ("shell", "system.beta=NaN"),
    ("shell", "shell.radius_z=NaN"), ("vacuum", "t_max=NaN"),
    ("shell", "system.beta=1e999"), ("toy", "t_max=0"),
    ("vacuum", "t_max=-5"), ("toy", "seed=-1"), ("shell", "seed=-1")])
def test_main_rejects_mistyped_values(tmp_path, capsys, scenario,
                                      assignment):
    code = main([scenario, "--out", str(tmp_path / "o"),
                 "--set", assignment])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == 1
    assert not (tmp_path / "o").exists()


def test_main_rejects_nonfinite_config_file(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"scenario": "shell", "shell": {"radius_z": Infinity}}')
    code = main(["shell", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "Infinity" in err["message"]
    assert not (tmp_path / "o").exists()


def test_main_rejects_solver_section(tmp_path, capsys):
    # The time-domain route has one solver setup; its settings are not
    # configurable.
    code = main(["toy", "--out", str(tmp_path / "o"),
                 "--set", "solver.rtol=1e-10"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == 1
    assert "'solver'" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, assignment, key", [
    ("vacuum", "system.gama=0.5", "gama"),
    ("shell", "shell.n_atom=5", "n_atom"),
    ("single-detector",
     "system.detector_atoms=" + json.dumps([{**DETECTOR, "mu_c_scal": 0.0}]),
     "mu_c_scal"),
    ("vacuum", "system.dos.shape=power", "dos"),
    ("vacuum", "grid.omega_cut=4.0", "omega_cut"),
    ("toy", "toy.t_max=100.0", "t_max"),
    ("vacuum", "system.omega0=1.5", "omega0"),
    ("single-detector",
     "system.detector_atoms=" + json.dumps([{**DETECTOR, "mu_c_scale": 1.0}]),
     "mu_c_scale")],
    ids=["system", "shell", "detector_atom", "dos", "grid", "toy", "omega0",
         "mu_c_scale"])
def test_main_rejects_unknown_keys(tmp_path, capsys, scenario, assignment,
                                   key):
    code = main([scenario, "--out", str(tmp_path / "o"),
                 "--set", assignment])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == 1
    assert f"unknown key {key!r}" in err["message"]
    assert not (tmp_path / "o").exists()


WITH_DETECTOR = "system.detector_atoms=" + json.dumps([DETECTOR])


@pytest.mark.parametrize("scenario, assignments", [
    ("toy", ["toy.gamma=-0.01"]), ("toy", ["toy.beta_toy=-0.05"]),
    ("toy", ["toy.n_modes=0"]),
    ("single-detector", [WITH_DETECTOR, "grid.n_phi=0"]),
    ("single-detector", [WITH_DETECTOR, "grid.n_modes=0",
                         "grid.scheme=uniform"]),
    ("toy", ["toy.gamma=0.5"])],
    ids=["gamma", "beta_toy", "toy_n_modes", "n_phi", "n_modes",
         "gamma_cap"])
def test_main_rejects_out_of_range_grids(tmp_path, capsys, scenario,
                                         assignments):
    # The specs must refuse these before any grid is built: a negative
    # strength makes NaN couplings that stall the solver, an empty grid
    # divides by zero, and a toy linewidth above the pole-regime cap is
    # outside the regime the analytic rate assumes.  A warning would reach
    # stderr too, so it fails here.
    argv = [scenario, "--out", str(tmp_path / "o")]
    for assignment in assignments:
        argv += ["--set", assignment]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "GridError"
    assert err["exit_code"] == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_samples", [0, 1])
def test_main_rejects_too_few_shell_samples(tmp_path, capsys, n_samples):
    # The shell placement average is closed form, so the CLI draws no
    # samples: shell.n_samples is an unknown key whatever its value.
    code = main(["shell", "--out", str(tmp_path / "o"),
                 "--set", f"shell.n_samples={n_samples}"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == 1
    assert "unknown key 'n_samples'" in err["message"]
    assert not (tmp_path / "o").exists()


def test_main_numerical_failure(tmp_path, capsys):
    # A vacuum grid too coarse for the sum rule is a numerical failure.
    code = main(["vacuum", "--out", str(tmp_path / "o"),
                 "--set", "grid.n_modes=60"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SumRuleError"
    assert not (tmp_path / "o").exists()


def test_main_integration_failure(tmp_path, capsys, monkeypatch):
    # An interval too small for the spectrum makes the moments diverge.
    real = dynamics._spectral_interval

    def undersized(model):
        c, r = real(model)
        return c, 0.5 * r

    monkeypatch.setattr(dynamics, "_spectral_interval", undersized)
    code = main(["toy", "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "IntegrationError"
    assert err["exit_code"] == 2
    assert "spectral interval" in err["message"]
    assert not (tmp_path / "o").exists()


def test_main_linalg_failure(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "build_scalar_toy", singular)
    code = main(["toy", "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LinAlgError"
    assert err["exit_code"] == 2


def test_pool_size_is_bounded():
    cpus = os.cpu_count() or 1
    assert _pool_size(1, 8) == 1
    assert _pool_size(10_000, 3) == min(3, cpus)
    assert _pool_size(10_000, 10_000) == cpus
    assert _pool_size(2, 1) == 1
    for jobs in (0, -4):
        with pytest.raises(ConfigError):
            _pool_size(jobs, 4)


def test_main_rejects_nonpositive_jobs(tmp_path, capsys):
    code = main(["shell", "--out", str(tmp_path / "o"), "--jobs", "0"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


def test_main_io_failure(tmp_path, capsys):
    code = main(["toy", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["exit_code"] == 3


def test_main_config_file_and_scenario_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "toy"}))
    code = main(["vacuum", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 1


def test_single_detector_requires_atom(tmp_path, capsys):
    code = main(["single-detector", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "detector" in json.loads(capsys.readouterr().err)["message"]
