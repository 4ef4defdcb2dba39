"""The benchmark workloads: set-up, one checked pass, and traced layers.

Each workload has ``setup(inputs)``, which builds what a pass needs and is
timed into ``setup_s`` together with the import of this module (and so of
``watched_decay``), and ``run_pass(state, workdir)``, which returns the
pass's checked ops and any counters the benchmark measured itself.

Calls go through module attributes (``dynamics.integrate(...)``), so the
wrappers ``instrument`` installs see them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from watched_decay import analytic, cli, discretize, dynamics, geometry, resolvent
from watched_decay.model import AtomDipole, DetectorAtom, PhysicalSystem

import checks

GAMMA = 0.01
BETA = 0.05
ZHAT = np.array([0.0, 0.0, 1.0])


class Full3dDetector:
    """README quick-start pipeline on the acceptance grid, one detector."""

    min_passes = 1
    grid = discretize.GridSpec(n_modes=320, scheme="uniform", n_theta=12,
                               n_phi=8, n_channels=100,
                               channel_scheme="uniform")
    t_max = 200.0

    def setup(self, inputs: dict) -> dict:
        phi = inputs["detector_azimuth"]
        r_hat = np.array([math.cos(phi), math.sin(phi), 0.0])
        system = PhysicalSystem(
            gamma=GAMMA, omega_i=0.3, beta=BETA,
            atom_dipole=AtomDipole(ZHAT),
            detector_atoms=(DetectorAtom(position=0.5 * math.pi * r_hat,
                                         dipole_dir=ZHAT),))
        model = discretize.build_full_3d(system, self.grid)
        geom = geometry.DipoleGeometry(p_a=ZHAT, p_d=ZHAT, r_hat=r_hat,
                                       z=system.omega0 * 0.5 * math.pi)
        return {"system": system, "model": model, "geom": geom}

    def run_pass(self, state: dict, workdir: Path):
        system, model = state["system"], state["model"]
        solver = dynamics.SolverSpec()
        try:
            traj = dynamics.integrate(model, self.t_max, solver=solver)
            fit = dynamics.fit_decay_rate(traj, gamma_expected=system.gamma)
            pole = resolvent.ww_pole(model)
            analytic.reduction_single(state["geom"], system.beta)
        except Exception as exc:  # a raising op counts as failed
            return checks.failed(list(checks.FULL3D_OPS), exc), {}
        return checks.full3d_ops(traj, fit.rate, system.gamma, pole["u"],
                                 solver.rtol), {}


class RoutesToy:
    """compare_routes on criterion 3's models, 201 times to 0.8 t_rec."""

    def setup(self, inputs: dict) -> dict:
        vacuum = PhysicalSystem(gamma=GAMMA, omega_i=0.3, beta=0.0)
        return {"models": {
            "vacuum_1d": discretize.build_radial_vacuum(
                vacuum, discretize.GridSpec(n_modes=50, scheme="uniform")),
            "toy_r0": discretize.build_scalar_toy(
                discretize.ToySpec(gamma=GAMMA, beta_toy=BETA)),
            "toy_retarded": discretize.build_scalar_toy(
                discretize.ToySpec(gamma=GAMMA, beta_toy=BETA,
                                   r=inputs["r_seed"])),
        }}

    def run_pass(self, state: dict, workdir: Path):
        ops = []
        for label, model in state["models"].items():
            t_grid = np.linspace(0.0, 0.8 * model.t_rec, 201)
            try:
                comp = dynamics.compare_routes(model, t_grid)
            except Exception as exc:  # InversionError among others
                ops += checks.route_failed(label, exc)
                continue
            ops += checks.route_ops(label, comp)
        return ops, {}


class CliScenarios:
    """cli.run in-process on five default configs, artifacts compared."""

    #: Byte identity needs a second pass to compare with the first.
    min_passes = 2
    artifacts = ("summary.json", "results.csv")

    def setup(self, inputs: dict) -> dict:
        seed = inputs["run_seed"]
        configs = {
            "vacuum": cli.RunConfig(scenario="vacuum", seed=seed),
            "toy": cli.RunConfig(scenario="toy", seed=seed),
            "shell": cli.RunConfig(scenario="shell", seed=seed),
            "sweep_r": cli.RunConfig(
                scenario="sweep", seed=seed,
                sweep={"parameter": "r",
                       "values": [2.3, 3.14159, 4.6, 6.28319]}),
            "sweep_n_atoms": cli.RunConfig(
                scenario="sweep", seed=seed,
                sweep={"parameter": "n_atoms", "values": [10, 50, 100, 200]}),
        }
        return {"configs": configs, "reference": None}

    def run_pass(self, state: dict, workdir: Path):
        ops = []
        written = 0
        produced = {}
        for label, config in state["configs"].items():
            out_dir = workdir / label
            try:
                doc = cli.run(config, out_dir, jobs=1)
            except Exception as exc:  # a raising run counts as failed
                ops += checks.failed([f"{label}.returns"], exc)
                continue
            ops.append(checks.Op(f"{label}.returns", True))
            if label == "vacuum":
                ops.append(checks.vacuum_op(doc["results"]))
            elif config.scenario == "sweep":
                ops.append(checks.sweep_op(label, doc["results"]))
            produced[label] = {name: (out_dir / name).read_bytes()
                               for name in self.artifacts}
            written += sum(p.stat().st_size for p in out_dir.rglob("*")
                           if p.is_file())
        if state["reference"] is None:
            state["reference"] = produced
        else:
            for label, reference in state["reference"].items():
                ops += checks.identical_ops(label, reference,
                                            produced.get(label, {}))
        return ops, {"cli.bytes_written": float(written)}


class RoutesCli:
    """RoutesToy's pass, then CliScenarios' pass: the small-state models.

    The CLI runs alone spread too much from run to run on a shared machine
    (their Python-bound passes slow by up to 1.7 times when the host is
    busy), so they share a workload with the route comparison.
    """

    min_passes = CliScenarios.min_passes

    def __init__(self):
        self.routes, self.cli = RoutesToy(), CliScenarios()

    def setup(self, inputs: dict) -> dict:
        return {"routes": self.routes.setup(inputs),
                "cli": self.cli.setup(inputs)}

    def run_pass(self, state: dict, workdir: Path):
        ops, _ = self.routes.run_pass(state["routes"], workdir)
        cli_ops, stats = self.cli.run_pass(state["cli"], workdir)
        return ops + cli_ops, stats


WORKLOADS = {
    "full3d_detector": Full3dDetector(),
    "routes_cli": RoutesCli(),
}


# ---------------------------------------------------------------------------
# Tracing: where each public function is looked up, and what is counted.

def _rhs_bytes_per_call(model) -> int:
    """Bytes one rhs evaluation reads and writes, from the array sizes.

    The state and its derivative (complex), the mode frequencies (real),
    the atom couplings and their conjugates, the detector factors and
    their conjugates (complex), and the channel frequencies and weights
    (real).  Temporaries are not counted.
    """
    k, a, c = model.n_modes, model.n_atoms, model.n_channels
    return 16 * 2 * model.size + 8 * k + 16 * 2 * k + 16 * 2 * k * a + 8 * 2 * c


def _observe_integrate(args, kwargs, traj):
    nfev = traj.metadata["nfev"]
    return {"nfev": nfev,
            "rhs_bytes": nfev * _rhs_bytes_per_call(args[0]),
            "max_norm_drift": float(np.max(np.abs(traj.norm_drift)))}


def _observe_routes(args, kwargs, comp):
    full, tpos = checks.route_diffs(comp)
    return {"max_abs_diff": full, "max_abs_diff_tpos": tpos}


def _observe_invert(args, kwargs, result):
    info = result[1]
    return {"nodes": info["n_nodes"],
            "max_error_estimate": info["error_estimate"]}


def _observe_shell_mc(args, kwargs, result):
    return {"samples": args[3] if len(args) > 3 else kwargs["n_samples"]}


def _cli_run_name(args, kwargs):
    config = args[0]
    label = config.scenario
    if config.sweep is not None:
        label = f"sweep_{config.sweep['parameter']}"
    return f"cli.run.{label}"


def instrument(tracer) -> None:
    """Register wrappers at every lookup site the workloads reach.

    ``cli`` binds the builders, ``integrate`` and ``ww_pole`` at import, and
    ``analytic`` and ``resolvent`` bind ``d_oracle``; ``compare_routes``
    looks up ``invert_laplace`` and ``resolvent_a0_discrete`` at call time.
    """
    for builder in ("build_full_3d", "build_radial_vacuum", "build_scalar_toy"):
        for module in (discretize, cli):
            tracer.wrap(module, builder, "discretize.build",
                        lambda a, k, model: {"amplitudes": model.size})
    for module in (dynamics, cli):
        tracer.wrap(module, "integrate", "dynamics.integrate",
                    _observe_integrate)
        tracer.wrap(module, "compare_routes", "dynamics.compare_routes",
                    _observe_routes)
    for module in (resolvent, cli):
        tracer.wrap(module, "ww_pole", "resolvent.ww_pole")
    tracer.wrap(resolvent, "invert_laplace", "resolvent.invert",
                _observe_invert)
    tracer.wrap(resolvent, "resolvent_a0_discrete", "resolvent.transform",
                lambda a, k, out: {"points": int(np.size(a[0]))})
    tracer.wrap(analytic, "reduction_single", "analytic.reduction_single")
    tracer.wrap(analytic, "shell_reduction_mc", "analytic.shell_mc",
                _observe_shell_mc)
    for module in (analytic, resolvent):
        tracer.wrap(module, "d_oracle", "geometry.d_oracle")
    tracer.wrap(cli, "run", _cli_run_name)


CLI_LABELS = ("vacuum", "toy", "shell", "sweep_r", "sweep_n_atoms")
MODULES = ("discretize", "dynamics", "resolvent", "analytic", "geometry", "cli")


def layer_metrics(totals: dict, pass_id, stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up builds included).

    A layer the workload does not reach reads 0.
    """
    def get(name, key="s", with_setup=False):
        value = totals.get((pass_id, name), {}).get(key, 0.0)
        if with_setup:
            value += totals.get(("setup", name), {}).get(key, 0.0)
        return float(value)

    integrate_s = get("dynamics.integrate")
    nfev = get("dynamics.integrate", "nfev")
    metrics = {
        "discretize.build_s": get("discretize.build", with_setup=True),
        "discretize.amplitudes": get("discretize.build", "amplitudes", True),
        "dynamics.integrate_s": integrate_s,
        "dynamics.nfev": nfev,
        "dynamics.rhs_us": 1e6 * integrate_s / nfev if nfev else 0.0,
        "dynamics.rhs_bytes_computed": get("dynamics.integrate", "rhs_bytes"),
        "dynamics.max_norm_drift": get("dynamics.integrate",
                                       "max_norm_drift"),
        "resolvent.invert_s": get("resolvent.invert"),
        "resolvent.transform_s": get("resolvent.transform"),
        "resolvent.phase_sum_s": get("resolvent.invert", "self_s"),
        "resolvent.contour_nodes": get("resolvent.invert", "nodes"),
        "resolvent.transform_points": get("resolvent.transform", "points"),
        "resolvent.ww_pole_s": get("resolvent.ww_pole"),
        "resolvent.error_estimate": get("resolvent.invert",
                                        "max_error_estimate"),
        "resolvent.route_max_abs_diff": get("dynamics.compare_routes",
                                            "max_abs_diff"),
        "resolvent.route_max_abs_diff_tpos": get("dynamics.compare_routes",
                                                 "max_abs_diff_tpos"),
        "analytic.reduction_single_s": get("analytic.reduction_single"),
        "analytic.reduction_single_calls": get("analytic.reduction_single",
                                               "calls"),
        "analytic.shell_mc_s": get("analytic.shell_mc"),
        "analytic.shell_mc_samples": get("analytic.shell_mc", "samples"),
        "geometry.d_oracle_s": get("geometry.d_oracle"),
        "geometry.d_oracle_calls": get("geometry.d_oracle", "calls"),
        "cli.bytes_written": float(stats.get("cli.bytes_written", 0.0)),
    }
    for label in CLI_LABELS:
        metrics[f"cli.run_s.{label}"] = get(f"cli.run.{label}")
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            acc["self_s"] for (p, name), acc in totals.items()
            if p in (pass_id, "setup") and name.startswith(module + "."))
    return metrics
