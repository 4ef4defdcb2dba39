"""Accuracy checks of the benchmark, and a self-test of the checks.

Every check is one op: it passes or it fails, and the benchmark counts
both.  The checks recompute what they test from the program's raw
outputs (trajectory arrays, route amplitudes, artifact bytes) instead of
trusting a number the program reports about itself.

Run ``python3 perfbench/checks.py`` to self-test the checks alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

#: Criterion 7: the norm may drift by at most 100 times the solver rtol.
DRIFT_FACTOR = 100.0
#: Criterion 2: the fitted rate lies within 10% of gamma * U from ww_pole.
POLE_REL_TOL = 0.10
#: Criterion 3: ODE and Bromwich amplitudes agree to better than this.
ROUTE_ABS_TOL = 1e-6
#: Criterion 1: the vacuum rate lies within 3% of gamma.
VACUUM_REL_TOL = 0.03


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


def failed(names: list[str], exc: BaseException) -> list[Op]:
    """Each check that could not run because its operation raised."""
    detail = f"{type(exc).__name__}: {exc}"
    return [Op(name, False, detail) for name in names]


FULL3D_OPS = ("norm_drift", "slower_than_gamma", "rate_near_pole")


def full3d_ops(traj, rate: float, gamma: float, u_pole: float,
               rtol: float) -> list[Op]:
    drift = float(np.max(np.abs(traj.norm_drift)))
    target = gamma * float(np.real(u_pole))
    rel = abs(rate - target) / target
    return [
        Op("norm_drift", drift <= DRIFT_FACTOR * rtol, f"{drift:.3e}"),
        Op("slower_than_gamma", rate < gamma, f"{rate:.6e} vs {gamma}"),
        Op("rate_near_pole", rel <= POLE_REL_TOL, f"{rel:.3%} off gamma*U"),
    ]


def route_diffs(comp) -> tuple[float, float]:
    """Max |a0_ode - a0_bromwich| over all times and over t > 0 only."""
    diff = np.abs(np.asarray(comp.a0_ode) - np.asarray(comp.a0_resolvent))
    tpos = diff[np.asarray(comp.times) > 0.0]
    return float(np.max(diff)), float(np.max(tpos)) if tpos.size else 0.0


def route_ops(label: str, comp) -> list[Op]:
    full, _ = route_diffs(comp)
    return [Op(f"{label}.no_inversion_error", True),
            Op(f"{label}.route_diff", full < ROUTE_ABS_TOL, f"{full:.3e}")]


def route_failed(label: str, exc: BaseException) -> list[Op]:
    return failed([f"{label}.no_inversion_error", f"{label}.route_diff"], exc)


def vacuum_op(results: dict) -> Op:
    rel = abs(results["fitted_rate"] - results["gamma"]) / results["gamma"]
    return Op("vacuum.rate_error", rel < VACUUM_REL_TOL, f"{rel:.3%}")


def sweep_op(label: str, results: dict) -> Op:
    n_failed = sum(1 for row in results["rows"] if row["error"])
    return Op(f"{label}.no_failed_points", n_failed == 0,
              f"{n_failed} of {len(results['rows'])} failed")


def identical_ops(label: str, reference: dict[str, bytes],
                  artifacts: dict[str, bytes]) -> list[Op]:
    """One op per artifact: byte-identical to the first pass's copy."""
    return [Op(f"{label}.{name}.identical", artifacts.get(name) == ref)
            for name, ref in sorted(reference.items())]


# ---------------------------------------------------------------------------
# Self-test: perturbed inputs must fail, clean inputs must pass.

def _clean_trajectory():
    t = np.linspace(0.0, 200.0, 301)
    a0 = np.exp(-0.5 * 0.0096 * t) * np.exp(-1j * t)
    return SimpleNamespace(times=t, a0=a0, norm_drift=np.full(t.size, 1e-10))


def selftest() -> list[str]:
    """Return the problems found; an empty list means the checks work."""
    problems = []
    traj = _clean_trajectory()
    clean = full3d_ops(traj, 0.0096, 0.01, 0.99, 1e-9)
    if not all(op.ok for op in clean):
        problems.append(f"clean trajectory flagged: {clean}")
    bumped = SimpleNamespace(times=traj.times, a0=traj.a0,
                             norm_drift=traj.norm_drift.copy())
    bumped.norm_drift[150] = 1e-5
    if full3d_ops(bumped, 0.0096, 0.01, 0.99, 1e-9)[0].ok:
        problems.append("perturbed trajectory drift not flagged")

    comp = SimpleNamespace(times=traj.times, a0_ode=traj.a0,
                           a0_resolvent=traj.a0 + 1e-12)
    if not all(op.ok for op in route_ops("clean", comp)):
        problems.append("clean route comparison flagged")
    perturbed = traj.a0.copy()
    perturbed[200] += 1e-5
    comp = SimpleNamespace(times=traj.times, a0_ode=perturbed,
                           a0_resolvent=traj.a0)
    if route_ops("perturbed", comp)[1].ok:
        problems.append("perturbed route trajectory not flagged")

    reference = {"summary.json": b'{"seed": 0}\n', "results.csv": b"t\n0.0\n"}
    if not all(op.ok for op in identical_ops("clean", reference,
                                             dict(reference))):
        problems.append("identical artifacts flagged")
    mismatched = {**reference, "summary.json": b'{"seed": 1}\n'}
    if sum(not op.ok for op in identical_ops("mismatch", reference,
                                             mismatched)) != 1:
        problems.append("mismatched CLI artifact not flagged exactly once")
    return problems


if __name__ == "__main__":
    import sys

    found = selftest()
    for problem in found:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAIL" if found else "ok"))
    sys.exit(1 if found else 0)
