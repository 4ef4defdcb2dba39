"""Benchmark of watched-decay: two workloads, end to end and per layer.

    python3 perfbench/run.py --workload full3d_detector --seed 1 \
        --seconds 50 --trace 0

Run from anywhere inside a source tree that has ``src/watched_decay`` next
to this directory.  Every workload process is fresh and pins BLAS to
``BLAS_THREADS`` threads.  With ``--trace 0`` the result carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  The last line of standard output is the result as one JSON
object; the lines before it are a readable header and table.  The full
record, spans included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes timed for setup_s, the pass worker's own set-up included.
#: Half run before the passes and half after, so that the median covers the
#: same stretch of time as the passes: this machine's speed drifts.
SETUP_SAMPLES = 7
BLAS_THREADS = 1
#: Every process of a run must have ended by then.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(workload: str, inputs_json: str, mode: str, seconds: float,
            trace: int, outdir: Path, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload,
           inputs_json, mode, str(seconds), str(trace), str(outdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker passed the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _revision() -> dict:
    """Git revision if the tree is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            rev = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_revision": rev, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "watched_decay" / "__init__.py").is_file():
        raise BenchError(f"no watched_decay sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    problems = checks.selftest()
    workload_inputs = inputs.WORKLOADS[args.workload](args.seed)
    inputs_json = json.dumps(workload_inputs)
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)

    def setup_probes(n: int) -> list[float]:
        return [_worker(args.workload, inputs_json, "setup", 0.0, 0, outdir,
                        deadline)["setup_s"] for _ in range(n)]

    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = setup_probes(probes // 2)
    res = _worker(args.workload, inputs_json, "passes", args.seconds,
                  args.trace, outdir, deadline)
    setups += [res["setup_s"]] + setup_probes(probes - probes // 2)
    passes = res["passes"]

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "time_to_solution_s": statistics.median(
                p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(units)}")

    header = {"workload": args.workload, "seed": args.seed,
              "inputs": workload_inputs, "trace": args.trace,
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "blas_threads_requested": BLAS_THREADS, **res["header"],
              **_revision(), "setup_samples": len(setups),
              "passes": len(passes),
              "traced_passes": sum(p["traced"] for p in passes),
              "checker_selftest": problems or "ok"}
    ops = res["ops"]
    n_failed = sum(not op["ok"] for op in ops)
    result = {"correct": n_failed == 0 and not problems,
              "attempted": len(ops), "failed": n_failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    record = {"header": header, "result": result, "setup_samples_s": setups,
              "passes": passes, "ops": ops, "spans": res.get("spans", [])}
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print("# " + json.dumps(header, sort_keys=True))
    for name in units:
        print(f"# {name:36s} {values[name]:>14.6g} {units[name]}")
    print(f"# {'ops_attempted':36s} {len(ops):>14d} count")
    print(f"# {'ops_failed':36s} {n_failed:>14d} count")
    print(f"# samples: setup_s over {len(setups)} fresh processes; "
          f"pass metrics over {len(passes)} passes"
          + (f" ({header['traced_passes']} traced)" if args.trace else ""))
    for op in ops:
        if not op["ok"]:
            print(f"# FAILED pass {op['pass']} {op['name']}: {op['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
