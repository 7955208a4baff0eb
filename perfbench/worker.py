"""One workload run in a fresh process: import kinrelax, run its CLI ops,
check the artifacts, write a result JSON.

Usage (run.py starts it; it is not meant to be typed):

    python3 perfbench/worker.py --src SRC --plan PLAN.json --result OUT.json --trace 0|1

The ops run in-process through ``kinrelax.cli.main``.  Timing covers the
ops only; ``calibrate`` runs right before and right after them, and the
artifact checks run after the timed region.  With
``--trace 1`` the per-layer tracer is installed after set-up, and
RuntimeWarnings raised during the ops are captured and counted.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
    # its own spawn time from this value.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def config_hash(default_config: dict, config: dict) -> str:
    """The documented artifact hash: sha256 of the resolved config without
    ``out``, as sorted compact JSON, first 12 hex digits."""
    merged = {k: v for k, v in {**default_config, **config}.items() if k != "out"}
    blob = json.dumps(merged, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read_csv(path: Path):
    """(comment header text, number of data rows) of a kinrelax CSV."""
    header, rows = [], -1  # the column-name line is not a data row
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header.append(line)
            elif line.strip():
                rows += 1
    return "".join(header), rows


def check_artifacts(op: dict, expected_hash: str) -> list:
    """Problems found in one op's artifacts (empty when all checks pass)."""
    out = Path(op["out"])
    problems = []
    for pattern, (n_files, n_rows) in op["checks"].get("csv", {}).items():
        files = sorted(out.glob(pattern))
        if len(files) != n_files:
            problems.append(f"{pattern}: {len(files)} files, expected {n_files}")
        for path in files:
            header, rows = _read_csv(path)
            if rows != n_rows:
                problems.append(f"{path.name}: {rows} rows, expected {n_rows}")
            if expected_hash not in header:
                problems.append(f"{path.name}: config hash {expected_hash} missing")
    name = op["checks"].get("all_passed")
    if name:
        try:
            passed = json.loads((out / name).read_text()).get("all_passed")
        except (OSError, ValueError) as exc:
            passed = f"unreadable ({exc})"
        if passed is not True:
            problems.append(f"{name}: all_passed is {passed!r}")
    return problems


def artifact_summary(out: Path):
    """(digest over relative paths and contents, file count, total bytes)."""
    digest = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    total = 0
    for path in files:
        data = path.read_bytes()
        total += len(data)
        digest.update(str(path.relative_to(out)).encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), len(files), total


def _max_residual_over_tol(ops: list) -> float:
    worst = 0.0
    for op in ops:
        path = Path(op["out"]) / "compare.json"
        if path.is_file():
            for rep in json.loads(path.read_text()).get("reports", []):
                worst = max(worst, rep["max_residual"] / rep["tolerance"])
    return worst


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work kinrelax does, in
    three parts of about equal length: interpreted float arithmetic and
    formatting, small-array numpy arithmetic, and 64x64 LAPACK eig.  It
    touches no kinrelax code, so its time measures only the speed the
    machine gives this process right now."""
    import numpy

    grid = numpy.arange(64 * 64).reshape(64, 64)
    mat = numpy.cos(grid * 0.37) + 1j * numpy.sin(grid * 0.91)
    weights = numpy.abs(mat[1])
    vec = mat[0]
    acc = 0.0
    start = time.perf_counter()
    for i in range(120000):
        x = i * 1e-4
        acc += math.exp(-x * x) / (1.0 + x)
        text = f"{acc:.17g}"
    for _ in range(8000):
        vec = -(1.0 + 0.5j * weights) * vec + numpy.sum(weights * vec)
        vec = vec / numpy.abs(vec).max()
    for _ in range(20):
        numpy.linalg.eig(mat)
    del text, vec
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import kinrelax
    import kinrelax.cli
    ready = _now()
    if not Path(kinrelax.__file__).resolve().is_relative_to(src):
        print(f"kinrelax imported from {kinrelax.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    ops = json.loads(Path(args.plan).read_text())
    cal_before = calibrate()
    tracer = None
    if args.trace:
        from tracer import Tracer  # the worker's directory is on sys.path
        tracer = Tracer()
        tracer.install()

    results = []
    with contextlib.ExitStack() as stack:
        caught = None
        if tracer is not None:
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
        cpu0, t0 = _cpu_s(), time.perf_counter()
        for op in ops:
            start = time.perf_counter()
            code, error = None, None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = kinrelax.cli.main([op["command"], "--config", op["config_file"]])
            except Exception as exc:  # the op fails; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            results.append({"command": op["command"], "exit": code, "error": error,
                            "wall_s": time.perf_counter() - start})
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    cal_after = calibrate()

    for op, res in zip(ops, results):
        res["problems"] = check_artifacts(op, config_hash(kinrelax.cli.DEFAULT_CONFIG,
                                                          op["config"]))
        res["digest"], res["files"], res["bytes"] = artifact_summary(Path(op["out"]))

    doc = {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
        "calibration_s": 0.5 * (cal_before + cal_after),
        "ops": results,
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "kinrelax": kinrelax.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["dispersion.warnings"] = sum(
            issubclass(w.category, RuntimeWarning) for w in caught)
        layers["cli.files_written"] = sum(r["files"] for r in results)
        layers["cli.bytes_written"] = sum(r["bytes"] for r in results)
        layers["diagnostics.max_residual_over_tol"] = _max_residual_over_tol(ops)
        doc["layers"] = layers
        doc["layer_self_s"] = tracer.layer_self_s()
        doc["absent"] = tracer.absent
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
