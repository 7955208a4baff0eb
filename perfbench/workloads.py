"""Seeded workload plans for the kinrelax benchmark.

A plan is a list of CLI ops.  Each op is one ``kinrelax <command>
--config <file>`` call plus the checks its artifacts must pass.  The seed
varies the density-profile parameters, the output times of ``build-gds``
and the property-battery RNG seed.  It never varies the sizes (sample
counts, modes, velocity order, grid points, time steps) that set the
amount of work, so every seed asks for the same work.

This module uses only the standard library: the parent process never
imports kinrelax, numpy or scipy.
"""

import json
import random
from pathlib import Path

WORKLOADS = ("synthesize", "verify-exact", "verify-rk4", "properties")

# Sizes per workload.  "smoke" shrinks every size so the benchmark's own
# test runs each workload in seconds; it is never used for measurements.
SIZES = {
    "full": {
        "dispersion_samples": 4000,
        "gds_times": 8,
        "gds_modes": 128,
        "gds_x_points": 512,
        "exact_modes": 128,
        "exact_t_final": 5.0,
        "rk4_modes": 8,
        "rk4_times": [0.5, 1.0, 2.0, 5.0],
    },
    "smoke": {
        "dispersion_samples": 40,
        "gds_times": 2,
        "gds_modes": 8,
        "gds_x_points": 32,
        "exact_modes": 4,
        "exact_t_final": 1.0,
        "rk4_modes": 2,
        "rk4_times": [0.5],
    },
}

# The reference-curve frequencies the dispersion command always appends.
REFERENCE_CURVE_POINTS = 10


def _profile(rng: random.Random) -> dict:
    return {"name": "gaussian-bump",
            "sigma": round(rng.uniform(0.15, 0.25), 6),
            "center": round(rng.uniform(0.35, 0.55), 6),
            "amplitude": round(rng.uniform(0.5, 2.0), 6)}


def _op(command: str, config: dict, checks: dict) -> dict:
    return {"command": command, "config": config, "checks": checks}


def _synthesize(rng, size):
    samples = size["dispersion_samples"]
    times = sorted(round(rng.uniform(0.1, 6.0), 4) for _ in range(size["gds_times"]))
    modes, x_points = size["gds_modes"], size["gds_x_points"]
    n = len(times)
    # edge_margin 0.01 puts the outermost sampled frequencies inside the
    # near-edge zone, so the inversion warning path runs on every seed.
    dispersion = _op("dispersion",
                     {"dispersion_samples": samples, "edge_margin": 0.01,
                      "profile": _profile(rng)},
                     {"csv": {"dispersion.csv": [1, 2 * (samples + REFERENCE_CURVE_POINTS)]}})
    gds = _op("build-gds",
              {"include_kinetic": True, "times": times, "modes": modes,
               "x_points": x_points, "profile": _profile(rng)},
              {"csv": {"spectral_t*.csv": [n, 2 * modes + 1],
                       "fields_t*.csv": [n, x_points],
                       "kinetic_t*.csv": [n, x_points]}})
    return [dispersion, gds]


def _verify_exact(rng, size):
    modes, t_final = size["exact_modes"], size["exact_t_final"]
    base = {"modes": modes, "profile": _profile(rng),
            "t_final": t_final, "times": [t for t in (0.5, 1.0, 2.0, 5.0) if t <= t_final]}
    rows = round(t_final / 0.01 / 10) + 1  # default dt and output_stride
    return [
        _op("compare", dict(base), {"all_passed": "compare.json",
                                    "csv": {"compare.csv": [1, 1]}}),
        _op("solve-direct", dict(base),
            {"csv": {"trajectories/mode_*.csv": [2 * modes, rows]}}),
    ]


def _verify_rk4(rng, size):
    return [_op("compare",
                {"method": "rk4", "modes": size["rk4_modes"], "times": size["rk4_times"],
                 "profile": _profile(rng)},
                {"all_passed": "compare.json", "csv": {"compare.csv": [1, 1]}})]


def _properties(rng, size):
    return [_op("properties",
                {"seed": rng.randrange(1, 2**31), "profile": _profile(rng)},
                {"all_passed": "properties.json"})]


_BUILDERS = {"synthesize": _synthesize, "verify-exact": _verify_exact,
             "verify-rk4": _verify_rk4, "properties": _properties}


def make_plan(workload: str, seed: int, smoke: bool = False) -> list:
    """The ops of one workload run; the same (workload, seed) gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, SIZES["smoke" if smoke else "full"])


def write_configs(plan: list, work_dir: Path) -> list:
    """Write each op's config JSON under work_dir; return the worker's op list.

    The config's ``out`` names a per-op artifact directory.  ``out`` is
    excluded from the config hash, so artifacts from different work
    directories stay byte-identical.
    """
    ops = []
    for i, op in enumerate(plan):
        out = work_dir / f"op{i}_{op['command']}"
        cfg_path = work_dir / f"op{i}_{op['command']}.json"
        cfg_path.write_text(json.dumps({**op["config"], "out": str(out)}, indent=2))
        ops.append({"command": op["command"], "config_file": str(cfg_path),
                    "config": op["config"], "out": str(out), "checks": op["checks"]})
    return ops
