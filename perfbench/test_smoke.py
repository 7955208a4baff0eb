"""Tests of the benchmark itself (not part of the Tier-1 suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench

The smoke runs use tiny sizes; properties still takes several seconds per
run because its quadrature oracle has no size knob.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_plan  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_and_no_failures(trace, section):
    proc = _run("--workload", "all", "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    per_workload = [json.loads(line) for line in lines if line.startswith("{")][:-1]
    assert len(per_workload) == len(WORKLOADS)
    for result in per_workload:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        got = result["metrics"]
        for metric in BENCH[section]:
            assert metric["name"] in got, metric["name"]
            assert got[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert set(got) == {m["name"] for m in BENCH[section]}
    assert sum("fail_ratio   0 ratio" in line for line in lines) == len(WORKLOADS)


def test_same_seed_same_plan_and_sizes_fixed_across_seeds():
    for workload in WORKLOADS:
        assert make_plan(workload, 3) == make_plan(workload, 3)
        sizes = [[sorted(op["checks"].get("csv", {}).items()) for op in make_plan(workload, s)]
                 for s in (1, 2)]
        assert sizes[0] == sizes[1]


def test_tracer_rebinds_imported_names_and_reports_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import kinrelax.cli as cli
    import kinrelax.quadrature as quadrature
    import tracer as tracer_module

    original_grid, original_cmd = quadrature.build_grid, cli.COMMANDS["compare"]
    monkeypatch.setattr(tracer_module, "LAYERS", tracer_module.LAYERS + (
        ("gds.gone", "kinrelax.gds", ("no_such_function", "NoClass.method")),))
    tr = tracer_module.Tracer()
    tr.install()
    try:
        assert cli.build_grid is quadrature.build_grid is not original_grid
        assert cli.COMMANDS["compare"] is cli.cmd_compare is not original_cmd
        cli.build_grid(8)
        assert tr.metrics()["quadrature.build_grid.calls"] == 1
        assert tr.absent == ["kinrelax.gds.no_such_function", "kinrelax.gds.NoClass.method"]
    finally:
        tr.uninstall()
    assert cli.build_grid is quadrature.build_grid is original_grid
    assert cli.COMMANDS["compare"] is cli.cmd_compare is original_cmd


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "synthesize", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
