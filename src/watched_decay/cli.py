"""Command-line front end: scenarios, persistence, plot-ready data.

Each subcommand builds a model from a JSON config (plus dotted-path
overrides), runs one scenario, and writes four artifacts into the output
directory: ``results.csv``, ``summary.json``, ``report.txt`` and
``plotdata/*.dat``.  Outputs are deterministic for a given config + seed:
all randomness flows from the single seed through named substreams and
every float is serialized via repr.

Exit codes: 0 success, 1 config/validation failure, 2 numerical
non-convergence, 3 I/O failure.  Failures emit a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analytic
from .discretize import (
    GridSpec,
    GridError,
    RecurrenceError,
    SumRuleError,
    ToySpec,
    build_full_3d,
    build_radial_vacuum,
    build_scalar_toy,
)
from .dynamics import (
    FitWindowError,
    IntegrationError,
    compare_routes,
    fit_decay_rate,
    integrate,
)
from .geometry import DipoleGeometry
from .model import OMEGA0, AtomDipole, DetectorAtom, PhysicalSystem
from .resolvent import InversionError, PoleError, ww_pole

SCHEMA_VERSION = 1

SCENARIOS = ("vacuum", "single-detector", "shell", "toy", "compare-routes",
             "sweep")

#: Parameters a sweep may scan: beta and r run the toy scenario at each
#: point, n_atoms the shell and n_modes the vacuum scenario.
SWEEP_PARAMETERS = ("beta", "r", "n_atoms", "n_modes")

#: The report flags a smallness ratio of the closed-form approximations as
#: LARGE from this value on.
REGIME_THRESHOLD = 0.1


class ConfigError(ValueError):
    """Configuration file or override cannot be used."""


_EXIT_VALIDATION = 1
_EXIT_NUMERICAL = 2
_EXIT_IO = 3

# LinAlgError subclasses ValueError, so this tuple is matched before the
# validation errors.
_NUMERICAL_ERRORS = (InversionError, SumRuleError, RecurrenceError,
                     FitWindowError, PoleError, IntegrationError,
                     np.linalg.LinAlgError)


# ---------------------------------------------------------------------------
# Configuration

_SYSTEM_DEFAULTS = {
    "gamma": 0.01,
    "omega_i": 0.3,
    "beta": 0.05,
    "atom_dipole": [0.0, 0.0, 1.0],
    "detector_atoms": [],
}

#: Keys of one entry of system.detector_atoms, each with a value of its
#: type; neither has a default.
_DETECTOR_ATOM_KEYS = {"position": [], "dipole_dir": []}

_SHELL_DEFAULTS = {"n_atoms": 100, "radius_z": 0.5 * math.pi,
                   "n_samples": 10000}

#: Config sections that map one to one onto a dataclass.
_SPEC_SECTIONS = {"grid": GridSpec, "toy": ToySpec}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_float(token: str) -> float:
    """json.loads hook for float literals and NaN/Infinity: finite only.

    A literal such as 1e999 overflows to inf and is refused too.
    """
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} in config")
    return value


def _loads(raw: str):
    return json.loads(raw, parse_float=_finite_float,
                      parse_constant=_finite_float)


def _check_section(name: str, values, defaults: dict) -> None:
    """Reject keys and value types that a config section does not take.

    ``defaults`` maps each key the section takes to a value of its type.  A
    value must have that type: bool only for bool, int (not bool) for int,
    int or float for float, str for str, list for list.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{name} section must be a JSON object")
    for key, value in values.items():
        if key not in defaults:
            raise ConfigError(f"bad {name} section: unknown key {key!r}")
        kind = type(defaults[key])
        if not (_is_number(value) if kind is float else type(value) is kind):
            raise ConfigError(f"bad {name} section: {key} must be "
                              f"{kind.__name__}, got {value!r}")


@dataclass(eq=True)
class RunConfig:
    """One scenario run; plain dicts mirror the domain-type fields."""

    scenario: str
    system: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    toy: dict = field(default_factory=dict)
    shell: dict = field(default_factory=dict)
    sweep: dict | None = None
    t_max: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"expected one of {SCENARIOS}")
        if (self.sweep is not None) != (self.scenario == "sweep"):
            raise ConfigError("sweep section present iff scenario is sweep")
        if self.sweep is not None:
            param = self.sweep.get("parameter")
            if param not in SWEEP_PARAMETERS:
                raise ConfigError(
                    f"sweep parameter must be one of "
                    f"{sorted(SWEEP_PARAMETERS)}, got {param!r}")
            if not isinstance(self.sweep.get("values"), list):
                raise ConfigError("sweep.values must be a list")
        for name, spec in _SPEC_SECTIONS.items():
            _check_section(name, getattr(self, name),
                           {f.name: f.default for f in fields(spec)})
        _check_section("system", self.system, _SYSTEM_DEFAULTS)
        for i, atom in enumerate(self.system.get("detector_atoms", [])):
            _check_section(f"system.detector_atoms[{i}]", atom,
                           _DETECTOR_ATOM_KEYS)
        _check_section("shell", self.shell, _SHELL_DEFAULTS)
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not _is_number(self.t_max):
            raise ConfigError(f"t_max must be a number, got {self.t_max!r}")
        if not self.t_max > 0.0:
            raise ConfigError(f"t_max must be positive, got {self.t_max!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("config needs a scenario")
        return cls(**data)

    # -- typed builders ----------------------------------------------------

    def build_system(self) -> PhysicalSystem:
        cfg = {**_SYSTEM_DEFAULTS, **self.system}
        try:
            atoms = tuple(
                DetectorAtom(position=np.asarray(a["position"], dtype=float),
                             dipole_dir=np.asarray(a["dipole_dir"],
                                                   dtype=float))
                for a in cfg["detector_atoms"])
            system = PhysicalSystem(
                gamma=float(cfg["gamma"]), omega_i=float(cfg["omega_i"]),
                beta=float(cfg["beta"]),
                atom_dipole=AtomDipole(
                    np.asarray(cfg["atom_dipole"], dtype=float)),
                detector_atoms=atoms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad system section: {exc}") from exc
        return system


def apply_override(config: dict, assignment: str) -> dict:
    """Apply one ``dotted.path=json_value`` override, returning a new dict."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not KEY=VALUE")
    path, raw = assignment.split("=", 1)
    keys = path.split(".")
    try:
        value = _loads(raw)
    except json.JSONDecodeError:
        value = raw
    out = json.loads(json.dumps(config))  # deep copy, JSON-typed
    node = out
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {key!r} in {path!r}")
    node[keys[-1]] = value
    return out


# ---------------------------------------------------------------------------
# Serialization helpers

def _plain(obj):
    """Recursively convert to JSON-serializable plain Python types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    return obj


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def emit_plot_data(result, path: Path):
    """Write plot-ready whitespace-free delimited data with one header line.

    ``result`` is either a Trajectory-like payload
    ``{"traj": Trajectory, "rate": float}`` (columns t, survival,
    exp(-rate*t) reference) or a sweep payload
    ``{"rows": [{parameter, fitted_rate, analytic_rate}, ...], "parameter"}``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if "traj" in result:
        traj, rate = result["traj"], result["rate"]
        header = ["t", "survival", "reference"]
        rows = [[float(t), float(p), math.exp(-rate * float(t))]
                for t, p in zip(traj.times, traj.survival)]
    else:
        header = [result["parameter"], "fitted_rate", "analytic_rate"]
        rows = [[row.get(result["parameter"]), row.get("fitted_rate", ""),
                 row.get("analytic_rate", "")] for row in result["rows"]]
    _write_csv(path, header, rows)


# ---------------------------------------------------------------------------
# Report text

def _report_header(config: RunConfig, system: PhysicalSystem | None) -> list[str]:
    lines = [f"scenario: {config.scenario}", f"seed: {config.seed}", ""]
    if system is not None:
        lines += [
            "parameters:",
            f"  gamma = {system.gamma!r}",
            f"  beta = {system.beta!r}",
            f"  omega_i = {system.omega_i!r}",
            f"  omega0 = {OMEGA0!r}",
            f"  detector atoms: {len(system.detector_atoms)}",
        ]
        # At the pole evaluation point L*I reduces to beta and
        # mu_a^2 I / omega0 to gamma / 2; both must be small for the
        # denominator expansions to hold.
        lines += ["", "regime checks (smallness ratios, threshold "
                  f"{REGIME_THRESHOLD!r}):"]
        for name, ratio in (("L*I", system.beta),
                            ("mu_a^2 I / omega0", 0.5 * system.gamma)):
            flag = "ok" if ratio < REGIME_THRESHOLD else "LARGE"
            lines.append(f"  {name} = {ratio!r} -> {flag}")
    return lines


def _normalization_section(beta: float) -> list[str]:
    lines = ["", "angular-kernel normalization discrepancy "
             "(parallel dipoles, transverse separation):"]
    for rep in analytic.normalization_report(beta):
        lines += [
            f"  z = {rep.z!r}:",
            f"    D printed = {rep.d_printed!r}, "
            f"raw spherical integral = {rep.d_oracle_raw!r}, "
            f"ratio = {rep.oracle_ratio!r}",
            f"    U variants: general = {rep.u_general!r}, "
            f"oracle = {rep.u_oracle!r}, far = {rep.u_far_field!r}, "
            f"near = {rep.u_near_field!r}",
            f"    spread of applicable variants = {rep.discrepancy!r}",
        ]
    return lines


# ---------------------------------------------------------------------------
# Scenarios.  Each returns (csv_header, csv_rows, summary, report_lines,
# plot_payload or None).

def _run_trajectory(config: RunConfig, build, gamma: float, describe):
    """Build a model, integrate it to min(t_max, 0.9 t_rec), fit its rate.

    ``build()`` returns the model; ``describe(model, fit)`` returns the
    scenario's own summary fields, report lines and plot reference rate.
    The builder and ``integrate`` are looked up as module globals at call
    time, so wrappers set on this module see both calls.
    """
    model = build()
    t_max = min(config.t_max, 0.9 * model.t_rec)
    traj = integrate(model, t_max)
    fit = fit_decay_rate(traj, gamma_expected=gamma)
    extra, report, reference_rate = describe(model, fit)
    summary = {
        "fitted_rate": fit.rate, "rate_stderr": fit.stderr,
        "fit_window": list(fit.window), "r_squared": fit.r_squared,
        "gamma": gamma,
        "max_norm_drift": float(np.max(np.abs(traj.norm_drift))),
        "t_rec": model.t_rec, "z_factor": model.meta["z_factor"], **extra,
    }
    rows = [[float(t), float(a0.real), float(a0.imag), float(p),
             float(1.0 + drift)]
            for t, a0, p, drift in zip(traj.times, traj.a0, traj.survival,
                                       traj.norm_drift)]
    return (["t", "re_a0", "im_a0", "survival", "norm"], rows, summary,
            report, {"traj": traj, "rate": reference_rate,
                     "name": "trajectory"})


def _run_vacuum(config: RunConfig):
    system = config.build_system()
    grid = GridSpec(**config.grid)

    def describe(model, fit):
        rel = abs(fit.rate - system.gamma) / system.gamma
        report = _report_header(config, system) + [
            "", f"fitted rate = {fit.rate!r} +/- {fit.stderr!r}",
            f"configured gamma = {system.gamma!r} (relative error {rel:.3%})",
        ] + _normalization_section(system.beta)
        return ({"relative_rate_error": rel, "n_modes": model.n_modes},
                report, system.gamma)

    return _run_trajectory(config, lambda: build_radial_vacuum(system, grid),
                           system.gamma, describe)


def _run_single_detector(config: RunConfig):
    system = config.build_system()
    if not system.detector_atoms:
        raise ConfigError("single-detector scenario needs one detector atom "
                          "in system.detector_atoms")
    grid = GridSpec(**config.grid)
    atom = system.detector_atoms[0]
    geom = DipoleGeometry(p_a=system.atom_dipole.dipole_dir,
                          p_d=atom.dipole_dir, r_hat=atom.r_hat, z=atom.r)

    def describe(model, fit):
        red = analytic.reduction_single(geom, system.beta)
        pole = ww_pole(model)
        u_fitted = fit.rate / (system.gamma * model.meta["z_factor"])
        extra = {
            "beta": system.beta, "z": geom.z, "u_fitted": u_fitted,
            "u_discrete_kernels": pole["u"],
            "u_general": red.u_general, "u_oracle": red.u_oracle,
            "u_far_field": red.u_far_field, "u_near_field": red.u_near_field,
            "u_variant_spread": red.discrepancy,
        }
        report = _report_header(config, system) + [
            "",
            f"fitted rate = {fit.rate!r} +/- {fit.stderr!r}",
            f"fitted U = {u_fitted!r}",
            f"analytic gamma*U targets at z = {geom.z!r}:",
            f"  discrete kernels: {system.gamma * pole['u']!r} "
            f"(U = {pole['u']!r})",
            f"  printed kernel:   {system.gamma * red.u_general!r} "
            f"(U = {red.u_general!r})",
            f"  oracle kernel:    {system.gamma * red.u_oracle!r} "
            f"(U = {red.u_oracle!r})",
            f"  far field:        {system.gamma * red.u_far_field!r} "
            f"(U = {red.u_far_field!r})",
        ] + _normalization_section(system.beta)
        return extra, report, system.gamma * pole["u"]

    return _run_trajectory(config, lambda: build_full_3d(system, grid),
                           system.gamma, describe)


def _run_shell(config: RunConfig):
    system = config.build_system()
    shell = {**_SHELL_DEFAULTS, **config.shell}
    n_atoms = int(shell["n_atoms"])
    radius_z = float(shell["radius_z"])
    n_samples = int(shell["n_samples"])
    u_printed = analytic.reduction_shell(n_atoms, radius_z, system.beta)
    u_iso = analytic.reduction_shell(
        n_atoms, radius_z, system.beta,
        l2_average=analytic.L2_AVERAGE_ISOTROPIC)
    # Named substream of the single run seed: shell placement MC.
    substream = np.random.SeedSequence(config.seed).spawn(1)[0]
    mc_mean, mc_err = analytic.shell_reduction_mc(
        n_atoms, radius_z, system.beta, n_samples, seed=substream)
    summary = {
        "n_atoms": n_atoms, "radius_z": radius_z, "beta": system.beta,
        "u_shell_printed": u_printed, "u_shell_isotropic": u_iso,
        "u_shell_mc": mc_mean, "u_shell_mc_stderr": mc_err,
        "mc_samples": n_samples,
    }
    if n_atoms == 0:
        summary["u"] = 1.0
    rows = [["printed_l2_average", u_printed, 0.0],
            ["isotropic_l2_average", u_iso, 0.0],
            ["monte_carlo", mc_mean, mc_err]]
    report = _report_header(config, system) + [
        "",
        f"shell: {n_atoms} atoms at z = {radius_z!r}",
        f"U (printed 2/7 average)  = {u_printed!r}",
        f"U (isotropic 2/9 average) = {u_iso!r}",
        f"U (Monte Carlo, {n_samples} samples) = {mc_mean!r} +/- {mc_err!r}",
    ] + _normalization_section(system.beta)
    return (["variant", "u", "stderr"], rows, summary, report, None)


def _run_toy(config: RunConfig):
    toy = ToySpec(**config.toy)

    def describe(model, fit):
        pole = ww_pole(model)
        u_fitted = fit.rate / (toy.gamma * model.meta["z_factor"])
        analytic_rate = toy.gamma * pole["u"]
        extra = {"beta_toy": toy.beta_toy, "r": toy.r, "u_fitted": u_fitted,
                 "u_discrete_kernels": pole["u"],
                 "analytic_rate": analytic_rate}
        report = _report_header(config, None) + [
            f"toy parameters: gamma = {toy.gamma!r}, "
            f"beta_toy = {toy.beta_toy!r}, r = {toy.r!r}",
            "",
            f"fitted rate = {fit.rate!r} +/- {fit.stderr!r}",
            f"fitted U = {u_fitted!r}",
            f"discrete-kernel U = {pole['u']!r} "
            f"(analytic rate {analytic_rate!r})",
        ]
        return extra, report, analytic_rate

    return _run_trajectory(config, lambda: build_scalar_toy(toy), toy.gamma,
                           describe)


def _run_compare_routes(config: RunConfig):
    toy = ToySpec(**config.toy)
    model = build_scalar_toy(toy)
    t_end = min(config.t_max, 0.8 * model.t_rec)
    t_grid = np.linspace(0.0, t_end, 201)
    comp = compare_routes(model, t_grid)
    info = comp.inversion_info
    summary = {
        "max_abs_diff": comp.max_abs_diff,
        "t_end": t_end, "n_times": int(t_grid.size),
        "inversion_error_estimate": info["error_estimate"],
        "inversion_truncation_estimate": info["truncation_estimate"],
        "inversion_alias_estimate": info["alias_estimate"],
        "inversion_nodes": info["n_nodes"],
        "inversion_sigma": info["sigma"],
        "inversion_omega_max": info["omega_max"],
        "inversion_c_ref": info["c_ref"],
        "inversion_ref_order": info["ref_order"],
    }
    rows = [[float(t), float(abs(a - b))]
            for t, a, b in zip(comp.times, comp.a0_ode, comp.a0_resolvent)]
    report = _report_header(config, None) + [
        f"toy parameters: gamma = {toy.gamma!r}, beta_toy = {toy.beta_toy!r}",
        "",
        f"max |A0_ode - A0_resolvent| = {comp.max_abs_diff!r} "
        f"on [0, {t_end!r}]",
        f"inversion self-estimate = {info['error_estimate']!r} "
        f"({info['n_nodes']} contour nodes)",
        f"  truncation {info['truncation_estimate']!r}, "
        f"alias {info['alias_estimate']!r}",
        f"  reference of order {info['ref_order']} with its pole at "
        f"-c, c = {info['c_ref']!r}",
    ]
    return (["t", "abs_diff"], rows, summary, report, None)


# -- sweep -----------------------------------------------------------------

def _sweep_point(args):
    """One sweep point; returns a plain row dict (picklable)."""
    config_dict, parameter, value, index = args
    config = RunConfig.from_dict(config_dict)
    row = {"index": index, parameter: value, "error": ""}
    try:
        if parameter in ("beta", "r"):
            toy_key = "beta_toy" if parameter == "beta" else "r"
            point = replace(config, scenario="toy", sweep=None,
                            toy={**config.toy, toy_key: value})
            _, _, summary, _, _ = _run_toy(point)
            row.update(fitted_rate=summary["fitted_rate"],
                       rate_stderr=summary["rate_stderr"],
                       analytic_rate=summary["analytic_rate"],
                       u_fitted=summary["u_fitted"],
                       z_factor=summary["z_factor"],
                       u_analytic=summary["u_discrete_kernels"])
        elif parameter == "n_atoms":
            point = replace(config, scenario="shell", sweep=None,
                            shell={**config.shell, "n_atoms": value})
            _, _, summary, _, _ = _run_shell(point)
            gamma = {**_SYSTEM_DEFAULTS, **config.system}["gamma"]
            row.update(fitted_rate="", rate_stderr="",
                       analytic_rate=gamma * summary["u_shell_printed"],
                       u_analytic=summary["u_shell_printed"],
                       u_mc=summary["u_shell_mc"])
        else:  # n_modes; RunConfig admits only SWEEP_PARAMETERS
            point = replace(config, scenario="vacuum", sweep=None,
                            grid={**config.grid, "n_modes": int(value)})
            _, _, summary, _, _ = _run_vacuum(point)
            row.update(fitted_rate=summary["fitted_rate"],
                       rate_stderr=summary["rate_stderr"],
                       analytic_rate=summary["gamma"],
                       z_factor=summary["z_factor"],
                       u_analytic=1.0)
    except Exception as exc:  # per-point failures become row errors
        row["error"] = f"{type(exc).__name__}: {exc}"
        row.setdefault("fitted_rate", "")
        row.setdefault("rate_stderr", "")
        row.setdefault("analytic_rate", "")
        row.setdefault("u_analytic", "")
    return row


def _pool_size(jobs: int, n_tasks: int) -> int:
    """Worker processes for n_tasks: at most one per task and per CPU.

    The pool starts all its workers up front, so an unbounded request
    would start that many processes.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_tasks, os.cpu_count() or 1)


def _run_sweep(config: RunConfig, workers: int):
    parameter = config.sweep["parameter"]
    values = config.sweep["values"]
    tasks = [(config.to_dict(), parameter, v, i)
             for i, v in enumerate(values)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    header = [parameter, "fitted_rate", "rate_stderr", "analytic_rate",
              "u_analytic", "error"]
    csv_rows = [[r.get(parameter), r.get("fitted_rate", ""),
                 r.get("rate_stderr", ""), r.get("analytic_rate", ""),
                 r.get("u_analytic", ""), r.get("error", "")] for r in rows]
    n_failed = sum(1 for r in rows if r["error"])
    summary = {"parameter": parameter, "n_points": len(rows),
               "n_failed": n_failed, "rows": rows}
    report = _report_header(config, None) + [
        f"sweep over {parameter}: {len(rows)} points, {n_failed} failed", ""]
    for r in rows:
        status = r["error"] if r["error"] else (
            f"fitted = {r.get('fitted_rate')!r}, "
            f"analytic = {r.get('analytic_rate')!r}")
        report.append(f"  {parameter} = {r.get(parameter)!r}: {status}")
    plot = {"rows": rows, "parameter": parameter, "name": "sweep"}
    return header, csv_rows, summary, report, plot


# ---------------------------------------------------------------------------
# Driver

_RUNNERS = {
    "vacuum": _run_vacuum,
    "single-detector": _run_single_detector,
    "shell": _run_shell,
    "toy": _run_toy,
    "compare-routes": _run_compare_routes,
}


def run(config: RunConfig, out_dir: Path, jobs: int = 1) -> dict:
    """Execute the configured scenario and persist all artifacts.

    The output directory is created only once the scenario has returned,
    so a run that fails leaves none behind.
    """
    n_tasks = len(config.sweep["values"]) if config.sweep is not None else 1
    workers = _pool_size(jobs, n_tasks)

    if config.scenario == "sweep":
        header, rows, summary, report, plot = _run_sweep(config, workers)
    else:
        header, rows, summary, report, plot = _RUNNERS[config.scenario](config)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": config.scenario,
        "seed": config.seed,
        "config": config.to_dict(),
        "results": _plain(summary),
    }
    _write_csv(out_dir / "results.csv", header, rows)
    (out_dir / "summary.json").write_text(
        json.dumps(summary_doc, sort_keys=True, indent=2) + "\n")
    (out_dir / "report.txt").write_text("\n".join(report) + "\n")
    if plot is not None:
        emit_plot_data(plot, out_dir / "plotdata" / f"{plot['name']}.dat")
    else:
        (out_dir / "plotdata").mkdir(exist_ok=True)
    return summary_doc


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="watched-decay",
        description="Decay of an excited atom watched by an ionizable "
                    "photodetector: simulation scenarios.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       dest="overrides", help="dotted-path override")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
    return parser.parse_args(argv)


def _load_config(args) -> RunConfig:
    data: dict = {}
    if args.config is not None:
        raw = Path(args.config).read_text()
        try:
            data = _loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    data.setdefault("scenario", args.scenario)
    if data["scenario"] != args.scenario:
        raise ConfigError(
            f"config scenario {data['scenario']!r} does not match "
            f"subcommand {args.scenario!r}")
    for assignment in args.overrides:
        data = apply_override(data, assignment)
    if args.seed is not None:
        data["seed"] = args.seed
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        config = _load_config(args)
        run(config, args.out, jobs=args.jobs)
        return 0
    except _NUMERICAL_ERRORS as exc:
        code, err = _EXIT_NUMERICAL, exc
    except (ConfigError, GridError, ValueError) as exc:
        code, err = _EXIT_VALIDATION, exc
    except OSError as exc:
        code, err = _EXIT_IO, exc
    json.dump({"error": type(err).__name__, "message": str(err),
               "exit_code": code}, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
