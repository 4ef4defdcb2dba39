"""The behaviour contract: eleven CLI runs and their checked-in artifacts,
and the work counters of four models.

For each run, ``tests/golden/<name>/summary.json`` holds the summary.json
it writes, verbatim, and ``tests/golden/SHA256SUMS`` the SHA-256 of its
results.csv and report.txt, in the format ``sha256sum`` writes.
``tests/golden/work.json`` holds, for each model of ``WORK_MODELS``, the
propagator's series length and generator products and the Bromwich
route's contour nodes and transform points (see ``work_counters``).
``tests/golden/VERSIONS`` records the numpy and BLAS the files were made
with, since a different build may move the last digits.

Regenerate every file after a change that moves an artifact on purpose:

    PYTHONPATH=src python tests/golden_runs.py

and say in CHANGES.md why.  Before it writes, the script prints each
summary key and work counter that moved and each hashed artifact whose
SHA-256 changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from watched_decay import resolvent
from watched_decay.cli import RunConfig, run
from watched_decay.discretize import (
    GridSpec,
    ToySpec,
    build_full_3d,
    build_radial_vacuum,
    build_scalar_toy,
)
from watched_decay.dynamics import compare_routes, integrate
from watched_decay.model import AtomDipole, DetectorAtom, PhysicalSystem

GOLDEN_DIR = Path(__file__).parent / "golden"
HASHED = ("results.csv", "report.txt")


def _detector_at(z: float) -> dict:
    """One detector at retardation z along x, dipole along the emitter's z."""
    return {"detector_atoms": [{"position": [z, 0.0, 0.0],
                                "dipole_dir": [0.0, 0.0, 1.0]}]}


def _sweep(parameter: str, values: list) -> RunConfig:
    return RunConfig(scenario="sweep",
                     sweep={"parameter": parameter, "values": values})


RUNS = {
    "vacuum": RunConfig(scenario="vacuum"),
    "toy": RunConfig(scenario="toy"),
    "shell": RunConfig(scenario="shell"),
    "compare-routes": RunConfig(scenario="compare-routes"),
    "single-detector-z1.57": RunConfig(scenario="single-detector",
                                       system=_detector_at(0.5 * math.pi)),
    "single-detector-z0.05": RunConfig(scenario="single-detector",
                                       system=_detector_at(0.05)),
    "single-detector-z8": RunConfig(scenario="single-detector",
                                    system=_detector_at(8.0)),
    "sweep-r": _sweep("r", [2.3, 3.14159, 4.6, 6.28319]),
    "sweep-beta": _sweep("beta", [0.0, 0.05, 0.1]),
    "sweep-n_atoms": _sweep("n_atoms", [10, 50, 100, 200]),
    "sweep-n_modes": _sweep("n_modes", [200, 300, 400]),
}


#: The README quick-start's grid, which criterion 3 and the benchmark use.
ACCEPTANCE_GRID = GridSpec(n_modes=320, scheme="uniform", n_theta=12,
                           n_phi=8, n_channels=100, channel_scheme="uniform")
ZHAT = np.array([0.0, 0.0, 1.0])


def _detector_system(beta: float, positions, dipoles) -> PhysicalSystem:
    atoms = tuple(DetectorAtom(position=p, dipole_dir=d)
                  for p, d in zip(positions, dipoles))
    return PhysicalSystem(gamma=0.01, omega_i=0.3, beta=beta,
                          atom_dipole=AtomDipole(ZHAT), detector_atoms=atoms)


def _shell_10() -> PhysicalSystem:
    """Ten detectors at uniform random points of the sphere z = pi/2 with
    uniform random dipoles, placement seed 5, beta = 0.01."""
    v = np.random.default_rng(5).normal(size=(2, 10, 3))
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    return _detector_system(0.01, 0.5 * math.pi * v[0], v[1])


WORK_MODELS = {
    "quick-start": lambda: build_full_3d(
        _detector_system(0.05, [[0.5 * math.pi, 0.0, 0.0]], [ZHAT]),
        ACCEPTANCE_GRID),
    "vacuum": lambda: build_radial_vacuum(RUNS["vacuum"].build_system(),
                                          GridSpec()),
    "toy": lambda: build_scalar_toy(ToySpec()),
    "shell-10": lambda: build_full_3d(_shell_10(), ACCEPTANCE_GRID),
}


def work_counters(model, t_max: float = 200.0) -> dict:
    """Deterministic work of both routes on one model.

    ``n_terms`` and ``nfev`` come from ``integrate`` to
    min(t_max, 0.9 t_rec), the trajectory scenarios' horizon;
    ``contour_nodes`` and ``transform_points`` (the s values at which the
    resolvent is evaluated) from ``compare_routes`` on 201 times to
    min(t_max, 0.8 t_rec), the ``compare-routes`` scenario's grid, which
    the default toy's counters therefore give.
    """
    meta = integrate(model, min(t_max, 0.9 * model.t_rec)).metadata
    with mock.patch.object(resolvent, "resolvent_a0_discrete",
                           wraps=resolvent.resolvent_a0_discrete) as spy:
        comp = compare_routes(model, np.linspace(
            0.0, min(t_max, 0.8 * model.t_rec), 201))
    return {"n_terms": meta["n_terms"], "nfev": meta["nfev"],
            "contour_nodes": comp.inversion_info["n_nodes"],
            "transform_points": sum(int(np.size(call.args[0]))
                                    for call in spy.call_args_list)}


def work() -> dict:
    """{model: its work counters} over ``WORK_MODELS``."""
    return {name: work_counters(build()) for name, build in WORK_MODELS.items()}


def versions() -> dict:
    """numpy's version and the BLAS it was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def versions_note() -> str:
    """Both sets of versions when this run's differ from VERSIONS, else ""."""
    recorded = json.loads((GOLDEN_DIR / "VERSIONS").read_text())
    here = versions()
    return "" if recorded == here else (
        f"\n(golden files made with {recorded}, this run uses {here})")


def produce(name: str, out_dir: Path) -> tuple[str, dict]:
    """Run one contract run into out_dir: its summary.json text and the
    SHA-256 of each hashed artifact."""
    with warnings.catch_warnings():
        # The shell runs warn that U is below zero; the contract is the files.
        warnings.simplefilter("ignore")
        run(RUNS[name], out_dir)
    digests = {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
               for f in HASHED}
    return (out_dir / "summary.json").read_text(), digests


def read_sums() -> dict:
    """{"<run>/<file>": sha256} from SHA256SUMS."""
    sums = {}
    for line in (GOLDEN_DIR / "SHA256SUMS").read_text().splitlines():
        digest, path = line.split(maxsplit=1)
        sums[path] = digest
    return sums


def moved(expected, actual, path: str = "") -> list[str]:
    """``key: expected -> actual`` for each leaf that differs."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                out.append(f"{sub}: {expected[key]!r} -> (missing)")
            elif key not in expected:
                out.append(f"{sub}: (missing) -> {actual[key]!r}")
            else:
                out += moved(expected[key], actual[key], sub)
        return out
    if (isinstance(expected, list) and isinstance(actual, list)
            and len(expected) == len(actual)):
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in moved(e, a, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


def regenerate() -> None:
    """Rewrite every golden file, printing first, run by run, what moves:
    the summary keys and work counters that ``moved`` finds and each
    hashed artifact whose SHA-256 changed."""
    old_sums = read_sums() if (GOLDEN_DIR / "SHA256SUMS").exists() else {}
    sums = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            summary, digests = produce(name, Path(tmp) / name)
            path = GOLDEN_DIR / name / "summary.json"
            if path.exists():
                for line in moved(json.loads(path.read_text()),
                                  json.loads(summary)):
                    print(f"{name}: {line}")
            for f in HASHED:
                if digests[f] != old_sums.get(f"{name}/{f}"):
                    print(f"{name}/{f}: SHA-256 changed")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(summary)
            sums += [f"{digests[f]}  {name}/{f}" for f in HASHED]
    (GOLDEN_DIR / "SHA256SUMS").write_text("\n".join(sums) + "\n")
    counters = work()
    path = GOLDEN_DIR / "work.json"
    if path.exists():
        for line in moved(json.loads(path.read_text()), counters):
            print(f"work: {line}")
    path.write_text(json.dumps(counters, indent=2) + "\n")
    (GOLDEN_DIR / "VERSIONS").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
