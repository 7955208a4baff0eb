"""kinrelax benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synthesize --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload run happens in a fresh worker process (perfbench/worker.py)
that imports kinrelax from ``src/`` and drives ``kinrelax.cli.main`` with
config files generated from the seed.  Runs go one at a time until
``--seconds`` is used up (at least two).  BLAS and OpenMP threads are
pinned to one in the worker.

``--trace 0`` reports the end-to-end metrics (medians over the runs):
wall_s (ops only, set-up excluded), setup_s (worker spawn until kinrelax
is imported), cpu_s (user+sys of the worker over the ops) and peak_rss_mb
(ru_maxrss of the worker).  Times are scaled to a reference machine speed
by a calibration kernel timed in the same worker (see _scaled).
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, with the tracing overhead.  Every op's artifacts are checked, and every run of one
seed must write byte-identical artifacts; a failed op counts in
``failed``.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, make_plan, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 2  # an untraced and a traced one with --trace 1; a rerun to compare artifacts
RUN_BUDGET_S = 120.0  # no new worker starts after this, whatever --seconds says
DEADLINE_S = 170.0  # a worker still running this long after the start is killed
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Time of worker.calibrate() on a shared 2-vCPU Xeon VM (2.0 GHz) in its
# fast state.  On that host the speed one process gets flips between a
# fast state and one about 1.4x slower, and the share of slow time drifts
# by 20-40% within minutes for the same program and input.  Every
# reported time is therefore scaled to this reference speed; see _scaled.
REFERENCE_CALIBRATION_S = 0.30


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_computed", "bytes_written")):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_over_tol")):
        return "ratio"
    return "count"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no source tree, worker cannot start)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(ops: list, work_dir: Path, trace: bool, timeout: float) -> dict:
    """Start one worker on ``ops``, wait for it, return its result document."""
    plan = work_dir / "plan.json"
    result = work_dir / "result.json"
    plan.write_text(json.dumps(ops))
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
           "--plan", str(plan), "--result", str(result), "--trace", str(int(trace))]
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    spawned = _now()
    try:
        proc = subprocess.run(cmd, env=env, cwd=work_dir, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"crashed": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc["ready"] - spawned
    return doc


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Repeat one workload in fresh workers; return the aggregated result."""
    if not (ROOT / "src" / "kinrelax" / "__init__.py").is_file():
        raise BenchmarkError(f"no kinrelax source tree at {ROOT / 'src'}")
    plan = make_plan(workload, seed, smoke=smoke)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    deadline = _now() + DEADLINE_S
    try:
        # compiles bytecode and proves the import before anything is timed
        warm = run_worker([], base, False, deadline - _now())
        if "crashed" in warm:
            raise BenchmarkError(warm["crashed"])
        runs, durations = [], []
        start = _now()
        while True:
            elapsed = _now() - start
            if len(runs) >= MIN_RUNS and (
                    elapsed + statistics.median(durations) > seconds
                    or elapsed > RUN_BUDGET_S):
                break
            traced = trace and len(runs) % 2 == 1  # untraced, traced, untraced, ...
            work_dir = base / f"run{len(runs)}"
            work_dir.mkdir()
            began = _now()
            doc = run_worker(write_configs(plan, work_dir), work_dir, traced,
                             max(1.0, deadline - _now()))
            durations.append(_now() - began)
            doc["traced"] = traced
            runs.append(doc)
            shutil.rmtree(work_dir)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return aggregate(workload, seed, plan, runs, warm["environment"], trace)


def _failures(plan: list, runs: list):
    """(attempted ops, failed ops, one message per failure)."""
    attempted = len(plan) * len(runs)
    failed, messages = 0, []
    reference = {}
    for i, run in enumerate(runs):
        if "crashed" in run:
            failed += len(plan)
            messages.append(f"run {i}: {run['crashed']}")
            continue
        for j, op in enumerate(run["ops"]):
            why = list(op["problems"])
            if op["exit"] != 0:
                why.append(f"exit code {op['exit']} {op['error'] or ''}".strip())
            digest = reference.setdefault(j, op["digest"])
            if op["digest"] != digest:
                why.append("artifacts differ from the first run of this seed")
            if why:
                failed += 1
                messages.append(f"run {i} op {j} ({op['command']}): " + "; ".join(why))
    return attempted, failed, messages


def _percentile_note(n: int) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    if n < 20:
        return f"median of n={n}; no percentile above it has 10 samples beyond it"
    return f"median of n={n}; p{int(100 * (1 - 10 / n))} is the highest supported"


def _scaled(run: dict) -> dict:
    """A run's times in reference seconds: each time is multiplied by
    REFERENCE_CALIBRATION_S / the run's calibration time, which divides
    out the speed the shared machine gave that worker."""
    k = REFERENCE_CALIBRATION_S / run["calibration_s"]
    out = {"wall_s": run["wall_s"] * k, "setup_s": run["setup_s"] * k,
           "cpu_s": run["cpu_s"] * k, "peak_rss_mb": run["peak_rss_mb"]}
    if run["traced"]:
        out["layers"] = {name: v * k if layer_unit(name) == "s" else v
                         for name, v in run["layers"].items()}
        out["layers"]["trace.calibration_s"] = run["calibration_s"]
        out["layer_self_s"] = run["layer_self_s"] * k
    return out


def _layer_metrics(plain: list, traced: list) -> dict:
    """Medians of the traced runs' layer metrics, plus the tracing overhead
    and the share of traced wall time the layers below the commands cover."""
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"] -
                                   statistics.median(r["wall_s"] for r in plain))
    metrics["trace.covered_share"] = statistics.median(
        r["layer_self_s"] / r["wall_s"] for r in traced)
    return metrics


def aggregate(workload, seed, plan, runs, environment, trace) -> dict:
    attempted, failed, messages = _failures(plan, runs)
    ok = [r for r in runs if "crashed" not in r]
    raw = [r for r in ok if not r["traced"]]
    plain = [_scaled(r) for r in raw]
    traced = [_scaled(r) for r in ok if r["traced"]]
    lines = [f"kinrelax benchmark: workload={workload} seed={seed} trace={int(trace)} "
             f"runs={len(runs)} ops/run={len(plan)}",
             "environment: " + json.dumps(environment, sort_keys=True)]
    e2e = {}
    if plain:
        e2e = {name: statistics.median(r[name] for r in plain) for name in E2E_UNITS}
        lines += [f"  {name:12s} {e2e[name]:.6g} {unit}  ({_percentile_note(len(plain))})"
                  for name, unit in E2E_UNITS.items()]
        lines.append("  unscaled medians: " + "  ".join(
            f"{name} {statistics.median(r[name] for r in raw):.6g} s"
            for name in ("wall_s", "setup_s", "cpu_s", "calibration_s")) +
            f"  (reference calibration {REFERENCE_CALIBRATION_S} s)")
    lines.append(f"  {'fail_ratio':12s} {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} ops failed)")
    metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    if trace:
        metrics = {}
        if plain and traced:
            layers = _layer_metrics(plain, traced)
            metrics = {name: {"value": v, "unit": layer_unit(name)}
                       for name, v in layers.items()}
            absent = next(r["absent"] for r in ok if r["traced"])
            lines.append(f"  traced runs={len(traced)}; layers cover "
                         f"{100 * layers['trace.covered_share']:.1f}% of traced wall "
                         f"{layers['trace.wall_s']:.4g} s; tracing overhead "
                         f"{layers['trace.overhead_s']:+.4g} s; absent: "
                         f"{', '.join(absent) if absent else 'none'}")
    lines += [f"FAIL {m}" for m in messages[:20]]
    return {"lines": lines,
            "result": {"correct": failed == 0 and bool(ok), "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, minimum run count (for the benchmark's tests)")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            print("\n".join(out["lines"]), flush=True)
            res = out["result"]
            if args.workload == "all":
                print(json.dumps(res), flush=True)
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            combined["metrics"].update({prefix + k: v for k, v in res["metrics"].items()})
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
