"""One workload in one fresh process; prints one JSON line as its result.

    python3 perfbench/worker.py <root> <workload> <inputs-json> <mode> \
        <seconds> <trace> <outdir>

mode ``setup`` only imports and builds, so that ``setup_s`` includes the
import.  mode ``passes`` then runs checked passes for ``seconds``: another
pass starts only while a pass of median length still ends in time, and
the workload's minimum number of passes always runs.  With trace 1 the passes
alternate untraced and traced, and the result holds the per-layer
metrics of the traced passes, their spans, and the tracing overhead.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def _blas_header() -> dict:
    """OpenBLAS build string and thread count in effect, from numpy's copy."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*"):
        lib = ctypes.CDLL(str(path))
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        return {"openblas": lib.scipy_openblas_get_config64_().decode(),
                "blas_threads": lib.scipy_openblas_get_num_threads64_()}
    return {"openblas": "unknown", "blas_threads": None}


def main(argv):
    root, name, inputs_json, mode, seconds, trace, outdir = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import workloads  # imports watched_decay

    import watched_decay
    if Path(watched_decay.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"watched_decay imported from {watched_decay.__file__}"
                         f", not from {src}")
    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace == "1":
        tracer = spans.Tracer()
        workloads.instrument(tracer)
        tracer.install()
    state = workload.setup(json.loads(inputs_json))
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        tracer.uninstall()
    result = {"setup_s": setup_s}
    if mode == "setup":
        return result

    import numpy as np
    import scipy
    result["header"] = {"python": sys.version.split()[0],
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        **_blas_header()}
    workdir = Path(outdir)
    passes, ops = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        pass_dir = workdir / f"pass{len(passes)}"
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        c0, w0 = time.process_time(), time.perf_counter()
        pass_ops, stats = workload.run_pass(state, pass_dir)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced:
            tracer.uninstall()
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append({"wall_s": wall, "cpu_s": cpu, "traced": traced,
                       "stats": stats})
        ops += [{"pass": len(passes) - 1, "name": op.name, "ok": op.ok,
                 "detail": op.detail} for op in pass_ops]
        # Start another pass only if a typical one still ends in time.
        enough = (len(passes) >= workload.min_passes
                  and (tracer is None or any(p["traced"] for p in passes)))
        typical = statistics.median(p["wall_s"] for p in passes)
        if enough and time.perf_counter() - start + typical > float(seconds):
            break
    result.update(passes=passes, ops=ops,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        totals = spans.layer_totals(tracer.spans)
        per_pass = [workloads.layer_metrics(totals, i, p["stats"])
                    for i, p in enumerate(passes) if p["traced"]]
        layers = {key: statistics.median(m[key] for m in per_pass)
                  for key in per_pass[0]}
        traced_wall = [p["wall_s"] for p in passes if p["traced"]]
        plain_wall = [p["wall_s"] for p in passes if not p["traced"]]
        layers["trace.overhead_s"] = (statistics.median(traced_wall)
                                      - statistics.median(plain_wall))
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
