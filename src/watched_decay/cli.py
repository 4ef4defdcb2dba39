"""Command-line front end: scenarios and persistence.

Each subcommand builds a model from a JSON config (plus dotted-path
overrides), runs one scenario, and writes three artifacts into the output
directory: ``results.csv``, ``summary.json`` and ``report.txt``.  The
report is a rendering of the summary: the parameters and regime checks,
then one ``key = value`` line per non-list summary field with the value
as summary.json holds it.  Outputs are deterministic for a given config:
no scenario draws random numbers (the seed is only recorded), and every
float is serialized via repr.

Exit codes: 0 success, 1 config/validation failure, 2 numerical
non-convergence, 3 I/O failure.  Failures emit a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
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

#: Parameters a sweep may scan, each mapped to the scenario that runs at
#: every point and the config section and key that the point's value sets.
SWEEP_PARAMETERS = {
    "beta": ("toy", "toy", "beta_toy"),
    "r": ("toy", "toy", "r"),
    "n_atoms": ("shell", "shell", "n_atoms"),
    "n_modes": ("vacuum", "grid", "n_modes"),
}

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

_SHELL_DEFAULTS = {"n_atoms": 100, "radius_z": 0.5 * math.pi}

_SWEEP_DEFAULTS = {"parameter": "", "values": []}

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
            _check_section("sweep", self.sweep, _SWEEP_DEFAULTS)
            param = self.sweep.get("parameter")
            if param not in SWEEP_PARAMETERS:
                raise ConfigError(
                    f"sweep parameter must be one of "
                    f"{sorted(SWEEP_PARAMETERS)}, got {param!r}")
            if "values" not in self.sweep:
                raise ConfigError("sweep section needs values")
        for name, spec in _SPEC_SECTIONS.items():
            _check_section(name, getattr(self, name),
                           {f.name: f.default for f in fields(spec)})
        _check_section("system", self.system, _SYSTEM_DEFAULTS)
        for i, atom in enumerate(self.system.get("detector_atoms", [])):
            _check_section(f"system.detector_atoms[{i}]", atom,
                           _DETECTOR_ATOM_KEYS)
        _check_section("shell", self.shell, _SHELL_DEFAULTS)
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
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
    # bool before int: a Python bool is an int.
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _plain(obj.real), "im": _plain(obj.imag)}
    return obj


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Report text

def _field_lines(record: dict, indent: str) -> list[str]:
    """One ``key = value`` line per non-list field, valued as in JSON."""
    return [f"{indent}{key} = {json.dumps(_plain(value))}"
            for key, value in record.items() if not isinstance(value, list)]


def _report(config: RunConfig, system: PhysicalSystem | None, summary: dict,
            ratios: tuple = ()) -> list[str]:
    """report.txt lines, a rendering of the summary.

    The head, and with a system its parameters and regime checks
    (``ratios`` adds (name, ratio) pairs to them), then the summary's
    non-list fields as they read in summary.json, then with a system the
    kernel-normalization report, rendered the same way.
    """
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
                            ("mu_a^2 I / omega0", 0.5 * system.gamma),
                            *ratios):
            flag = "ok" if ratio < REGIME_THRESHOLD else "LARGE"
            lines.append(f"  {name} = {ratio!r} -> {flag}")
        lines.append("")
    lines += ["results:"] + _field_lines(summary, "  ")
    if system is not None:
        lines += ["", "angular-kernel normalization discrepancy "
                  "(parallel dipoles, transverse separation):"]
        for rep in analytic.normalization_report(system.beta):
            lines += [f"  z = {rep.z!r}:"] + _field_lines(asdict(rep), "    ")
    return lines


# ---------------------------------------------------------------------------
# Scenarios.  Each returns (csv_header, csv_rows, summary, report_lines).
# The builders, ``integrate`` and ``ww_pole`` are looked up as module
# globals at call time, so wrappers set on this module see every call.

_TRAJECTORY_HEADER = ["t", "re_a0", "im_a0", "survival", "norm"]


def _run_trajectory(config: RunConfig, model, gamma: float):
    """Integrate a model to min(t_max, 0.9 t_rec) and fit its rate.

    Returns the fit, the csv rows and the summary fields that every
    trajectory scenario shares.
    """
    t_max = min(config.t_max, 0.9 * model.t_rec)
    traj = integrate(model, t_max)
    fit = fit_decay_rate(traj, gamma_expected=gamma)
    summary = {
        "fitted_rate": fit.rate, "rate_stderr": fit.stderr,
        "fit_window": list(fit.window), "r_squared": fit.r_squared,
        "gamma": gamma,
        "max_norm_drift": float(np.max(np.abs(traj.norm_drift))),
        "error_bound": traj.metadata["error_bound"],
        "n_terms": traj.metadata["n_terms"],
        "t_rec": model.t_rec, "z_factor": model.meta["z_factor"],
    }
    rows = [[float(t), float(a0.real), float(a0.imag), float(p),
             float(1.0 + drift)]
            for t, a0, p, drift in zip(traj.times, traj.a0, traj.survival,
                                       traj.norm_drift)]
    return fit, rows, summary


def _run_vacuum(config: RunConfig):
    system = config.build_system()
    model = build_radial_vacuum(system, GridSpec(**config.grid))
    fit, rows, summary = _run_trajectory(config, model, system.gamma)
    reference = system.gamma * model.meta["z_factor"]
    rel = abs(fit.rate - reference) / reference
    summary.update(relative_rate_error=rel, n_modes=model.n_modes)
    return _TRAJECTORY_HEADER, rows, summary, _report(config, system, summary)


def _run_single_detector(config: RunConfig):
    system = config.build_system()
    if not system.detector_atoms:
        raise ConfigError("single-detector scenario needs one detector atom "
                          "in system.detector_atoms")
    grid = GridSpec(**config.grid)
    atom = system.detector_atoms[0]
    geom = DipoleGeometry(p_a=system.atom_dipole.dipole_dir,
                          p_d=atom.dipole_dir, r_hat=atom.r_hat, z=atom.r)
    model = build_full_3d(system, grid)
    fit, rows, summary = _run_trajectory(config, model, system.gamma)
    red = analytic.reduction_single(geom, system.beta)
    summary.update(
        beta=system.beta, z=geom.z,
        u_fitted=fit.rate / (system.gamma * model.meta["z_factor"]),
        u_discrete_kernels=ww_pole(model)["u"],
        u_general=red.u_general, u_oracle=red.u_oracle,
        u_far_field=red.u_far_field, u_near_field=red.u_near_field,
        u_variant_spread=red.discrepancy)
    return _TRAJECTORY_HEADER, rows, summary, _report(config, system, summary)


def _run_shell(config: RunConfig):
    system = config.build_system()
    shell = {**_SHELL_DEFAULTS, **config.shell}
    n_atoms = int(shell["n_atoms"])
    radius_z = float(shell["radius_z"])
    u_printed = analytic.reduction_shell(n_atoms, radius_z, system.beta)
    u_iso = analytic.reduction_shell(
        n_atoms, radius_z, system.beta,
        l2_average=analytic.L2_AVERAGE_ISOTROPIC)
    spread = analytic.shell_placement_spread(n_atoms, radius_z, system.beta)
    summary = {
        "n_atoms": n_atoms, "radius_z": radius_z, "beta": system.beta,
        "u_shell_printed": u_printed, "u_shell_isotropic": u_iso,
        "u_shell_placement_spread": spread,
    }
    rows = [["printed_l2_average", u_printed],
            ["isotropic_l2_average", u_iso]]
    # The additive deficits hold only while their sum stays small.
    ratios = (("collective deficit 1 - U (isotropic)", 1.0 - u_iso),)
    return (["variant", "u"], rows, summary,
            _report(config, system, summary, ratios))


def _run_toy(config: RunConfig):
    toy = ToySpec(**config.toy)
    model = build_scalar_toy(toy)
    fit, rows, summary = _run_trajectory(config, model, toy.gamma)
    summary.update(beta_toy=toy.beta_toy, r=toy.r,
                   u_fitted=fit.rate / (toy.gamma * model.meta["z_factor"]),
                   u_discrete_kernels=ww_pole(model)["u"])
    return _TRAJECTORY_HEADER, rows, summary, _report(config, None, summary)


def _run_compare_routes(config: RunConfig):
    toy = ToySpec(**config.toy)
    model = build_scalar_toy(toy)
    t_end = min(config.t_max, 0.8 * model.t_rec)
    t_grid = np.linspace(0.0, t_end, 201)
    comp = compare_routes(model, t_grid)
    info = comp.inversion_info
    summary = {
        "gamma": toy.gamma, "beta_toy": toy.beta_toy,
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
    return ["t", "abs_diff"], rows, summary, _report(config, None, summary)


# -- sweep -----------------------------------------------------------------

def _sweep_point(args):
    """One sweep point, run as its scenario's own run; a plain row dict.

    The row is the point's value, every non-list field of the scenario's
    summary and ``error``; a point that raises is its value and the error.
    """
    config, value = args
    parameter = config.sweep["parameter"]
    scenario, section, key = SWEEP_PARAMETERS[parameter]
    try:
        point = replace(config, scenario=scenario, sweep=None, **{
            section: {**getattr(config, section), key: value}})
        summary = _RUNNERS[scenario](point)[2]
    except Exception as exc:  # per-point failures become row errors
        return {parameter: value, "error": f"{type(exc).__name__}: {exc}"}
    return {parameter: value,
            **{k: v for k, v in summary.items() if not isinstance(v, list)},
            "error": ""}


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
    tasks = [(config, v) for v in config.sweep["values"]]
    if workers > 1:
        # Only a pooled sweep needs multiprocessing, so only it imports it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(t) for t in tasks]

    header = list(dict.fromkeys(
        [parameter] + [k for r in rows for k in r if k != "error"]
        + ["error"]))
    csv_rows = [[r.get(k, "") for k in header] for r in rows]
    n_failed = sum(1 for r in rows if r["error"])
    summary = {"parameter": parameter, "n_points": len(rows),
               "n_failed": n_failed, "rows": rows}
    report = _report(config, None, summary) + [""] + [
        f"  {parameter} = {r[parameter]!r}: {r['error'] or 'ok'}"
        for r in rows]
    return header, csv_rows, summary, report


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
        header, rows, summary, report = _run_sweep(config, workers)
    else:
        header, rows, summary, report = _RUNNERS[config.scenario](config)

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
