"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--workload NAME ...] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints for every end-to-end metric its median, quartiles and the
distance between the quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json.  ``--out`` writes the same figures and every raw value
as JSON, which is how perfbench/baseline.json was made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, ok = {}, True
    for workload in args.workload or WORKLOADS:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in parse_seeds(args.seeds)]
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        report[workload] = {name: summarize([r["metrics"][name]["value"] for r in results])
                            for name in results[0]["metrics"]}
        for name, s in report[workload].items():
            bound = bounds.get(name)
            note = f"bound {bound:g}" if bound is not None else ""
            print(f"{workload:13s} {name:45s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}  {note}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
