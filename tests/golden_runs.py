"""The behaviour contract: eleven CLI runs and their checked-in artifacts.

For each run, ``tests/golden/<name>/summary.json`` holds the summary.json
it writes, verbatim, and ``tests/golden/SHA256SUMS`` the SHA-256 of its
results.csv and report.txt, in the format ``sha256sum`` writes.
``tests/golden/VERSIONS`` records the numpy and BLAS the files were made
with, since a different build may move the last digits.

Regenerate every file after a change that moves an artifact on purpose:

    PYTHONPATH=src python tests/golden_runs.py

and say in CHANGES.md why.  Before it writes, the script prints each
summary key that moved and each hashed artifact whose SHA-256 changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np

from watched_decay.cli import RunConfig, run

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
    the summary keys that ``moved`` finds and each hashed artifact whose
    SHA-256 changed."""
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
    (GOLDEN_DIR / "VERSIONS").write_text(
        json.dumps(versions(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
