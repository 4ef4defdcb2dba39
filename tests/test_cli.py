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

TOY_FAST = {"n_modes": 120, "n_channels": 40}

#: One detector at retardation pi/2 along x, dipole parallel to the emitter's.
DETECTOR = {"position": [math.pi / 2.0, 0.0, 0.0],
            "dipole_dir": [0.0, 0.0, 1.0]}


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
                       shell={"n_atoms": 100, "radius_z": math.pi / 2.0,
                              "n_samples": 500}, seed=5)
    run(config, tmp_path)
    summary = read_summary(tmp_path)
    assert summary["schema_version"] == 1
    results = summary["results"]
    assert results["u_shell_printed"] == pytest.approx(0.73946, abs=1e-5)
    assert (tmp_path / "report.txt").read_text().startswith("scenario:")
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "variant,u,stderr"


@pytest.mark.parametrize("system, l_times_i", [
    ({}, "L*I = 0.05 -> ok"), ({"beta": 0.4}, "L*I = 0.4 -> LARGE")],
    ids=["defaults", "strong"])
def test_report_regime_lines(tmp_path, system, l_times_i):
    config = RunConfig(scenario="shell", system=system,
                       shell={"n_atoms": 0, "n_samples": 10})
    run(config, tmp_path)
    lines = (tmp_path / "report.txt").read_text().splitlines()
    start = lines.index("regime checks (smallness ratios, threshold 0.1):")
    assert lines[start + 1:start + 3] == [
        f"  {l_times_i}", "  mu_a^2 I / omega0 = 0.005 -> ok"]


def test_shell_empty_gives_unity(tmp_path):
    config = RunConfig(scenario="shell", shell={"n_atoms": 0,
                                                "n_samples": 10})
    run(config, tmp_path)
    assert read_summary(tmp_path)["results"]["u"] == 1.0


def test_toy_scenario_trajectory_contract(tmp_path):
    config = RunConfig(scenario="toy", toy=TOY_FAST, t_max=40.0)
    run(config, tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "t,re_a0,im_a0,survival,norm"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == pytest.approx(1.0)
    assert float(first[4]) == pytest.approx(1.0)
    # plot data: three columns, reference equals exp(-analytic_rate * t)
    summary = read_summary(tmp_path)
    rate = summary["results"]["analytic_rate"]
    plot = (tmp_path / "plotdata" / "trajectory.dat").read_text().splitlines()
    assert plot[0] == "t,survival,reference"
    t, _, ref = (float(x) for x in plot[5].split(","))
    assert ref == pytest.approx(math.exp(-rate * t), rel=1e-12)


def test_vacuum_scenario_recovers_gamma(tmp_path):
    results = run_twice(RunConfig(scenario="vacuum"), tmp_path)
    # Criterion 1's bound: the fitted vacuum rate is within 3% of gamma.
    assert abs(results["fitted_rate"] - results["gamma"]) \
        <= 0.03 * results["gamma"]


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


def test_compare_routes_reports_inversion_record(tmp_path):
    config = RunConfig(scenario="compare-routes", toy=TOY_FAST, t_max=40.0)
    results = run_twice(config, tmp_path)
    assert results["max_abs_diff"] < 1e-6
    assert results["inversion_error_estimate"] == (
        results["inversion_truncation_estimate"]
        + results["inversion_alias_estimate"])
    assert results["inversion_ref_order"] == 3
    assert results["inversion_c_ref"]["re"] == 1.0
    assert results["inversion_sigma"] > 0.0
    assert results["inversion_omega_max"] >= 16.0
    report = (tmp_path / "a" / "report.txt").read_text()
    assert "truncation" in report and "reference of order 3" in report


def test_byte_identical_reruns(tmp_path):
    config = RunConfig(scenario="toy", toy=TOY_FAST, t_max=40.0, seed=9)
    run(config, tmp_path / "a")
    run(config, tmp_path / "b")
    for name in ("results.csv", "summary.json", "report.txt",
                 "plotdata/trajectory.dat"):
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


def test_sweep_beta_runs_dynamics(tmp_path):
    config = RunConfig(
        scenario="sweep", toy=TOY_FAST, t_max=40.0,
        sweep={"parameter": "beta", "values": [0.0, 0.05]})
    run(config, tmp_path, jobs=2)
    rows = read_summary(tmp_path)["results"]["rows"]
    assert [r["error"] for r in rows] == ["", ""]
    assert rows[1]["fitted_rate"] < rows[0]["fitted_rate"]
    plot = (tmp_path / "plotdata" / "sweep.dat").read_text().splitlines()
    assert plot[0] == "beta,fitted_rate,analytic_rate"


# -- command line entry point ----------------------------------------------

def test_main_success_and_outputs(tmp_path, capsys):
    code = main(["shell", "--out", str(tmp_path / "o"), "--seed", "3",
                 "--set", "shell.n_samples=200"])
    assert code == 0
    assert (tmp_path / "o" / "summary.json").exists()
    assert read_summary(tmp_path / "o")["seed"] == 3
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
    ("vacuum", "t_max=-5")])
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
    code = main(["shell", "--out", str(tmp_path / "o"),
                 "--set", f"shell.n_samples={n_samples}"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 1
    assert "n_samples" in err["message"]


def test_main_numerical_failure(tmp_path, capsys):
    # A vacuum grid too coarse for the sum rule is a numerical failure.
    code = main(["vacuum", "--out", str(tmp_path / "o"),
                 "--set", "grid.n_modes=60"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SumRuleError"
    assert not (tmp_path / "o").exists()


def test_main_integration_failure(tmp_path, capsys, monkeypatch):
    class Failed:
        success = False
        message = "step size too small"

    monkeypatch.setattr(dynamics, "solve_ivp", lambda *a, **k: Failed())
    code = main(["toy", "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "IntegrationError",
                   "message": "integration failed: step size too small",
                   "exit_code": 2}


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
    code = main(["shell", "--out", str(tmp_path / "o"), "--jobs", "0",
                 "--set", "shell.n_samples=10"])
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
