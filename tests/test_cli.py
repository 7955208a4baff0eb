import json

import numpy as np
import pytest

from kinrelax.cli import ConfigError, RunConfig, _property_rows, main
from kinrelax.collision import (apply_collision, check_mass_conservation,
                                check_negative_semidefinite, check_self_adjoint)
from kinrelax.quadrature import build_grid, norm_phi

FAST = ["--modes", "10", "--xi-max", "0.6", "--times", "0.5,1",
        "--x-points", "32", "--n-velocity", "32"]


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        rows.append(line)
    header = rows[0].split(",")
    data = np.array([[float(tok) for tok in r.split(",")] for r in rows[1:]])
    return header, data


# ----------------------------------------------------------------- config

def test_config_defaults_validate():
    cfg = RunConfig.from_dict({})
    assert cfg.n_velocity == 64
    assert cfg.method == "exact"
    assert abs(cfg.domain_length - 2 * np.pi / cfg.dxi) < 1e-12


@pytest.mark.parametrize("bad", [
    {"modes": 0},
    {"xi_max": 2.0},
    {"xi_max": -0.1},
    {"n_velocity": 1},
    {"method": "euler"},
    {"x_points": 100},          # not a power of two
    {"x_points": 64, "modes": 40},  # too small for the modes
    {"times": []},
    {"unknown_key": 1},
    {"profile": {"name": "mystery"}},
    {"tolerances": {"nope": 1.0}},
    {"inject_lambda_error": float("nan")},
    {"edge_margin": float("inf")},
    {"xi_min": -1},
    {"modes": "many"},
    {"times": "abc"},
    {"profile": "gaussian-bump"},
    {"profile": {"name": "gaussian-bump", "bogus": 1}},
    {"profile": {"name": "gaussian-bump", "sigma": "x"}},
    {"tolerances": {"gds_vs_direct": "abc"}},
    {"tolerances": {"gds_vs_direct": float("nan")}},
])
def test_config_rejections(bad):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


def test_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"xi_max": 0.8, "modes": 10, "n_velocity": 32,
                                    "times": [0.5], "x_points": 32}))
    out = tmp_path / "o"
    assert run(["compare", "--config", cfg_file, "--xi-max", "0.6",
                "--out", out]) == 0
    doc = json.loads((out / "compare.json").read_text())
    assert doc["reports"][0]["passed"] is True
    # the hash reflects the overridden value
    cfg_a = RunConfig.from_dict({"xi_max": 0.8})
    cfg_b = RunConfig.from_dict({"xi_max": 0.6})
    assert cfg_a.hash() != cfg_b.hash()


def test_bad_config_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert run(["properties", "--config", bad]) == 2
    missing = tmp_path / "nope.json"
    assert run(["properties", "--config", missing]) == 2


def test_empty_band_exits_2(tmp_path):
    assert run(["compare", "--modes", "0", "--out", tmp_path / "x"]) == 2
    assert run(["compare", "--xi-max", "3.0", "--out", tmp_path / "y"]) == 2


# --------------------------------------------------------------- commands

def test_cmd_dispersion(tmp_path):
    out = tmp_path / "disp"
    assert run(["dispersion", "--out", out]) == 0
    header, data = read_csv(out / "dispersion.csv")
    assert header == ["xi", "c", "b", "lambda"]
    xi, c, b, lam = data.T
    assert np.all((-1.0 < lam) & (lam < 0.0))
    # odd symmetry rows: c(-xi) = -c(xi)
    order = np.argsort(xi)
    assert np.allclose(c[order] + c[order][::-1], 0.0, atol=1e-12)
    # reproduction row near the reference coordinate (1, 0.753057): the
    # plotted curve deviates ~1% from the true one, so only 2e-2 is honest
    i = np.argmin(np.abs(xi - 0.753057))
    assert abs(xi[i] - 0.753057) < 1e-12
    assert abs(c[i] - 1.0) < 2e-2
    assert (out / "dispersion.json").exists()


def test_cmd_build_gds(tmp_path):
    out = tmp_path / "gds"
    assert run(["build-gds", *FAST, "--out", out]) == 0
    header, data = read_csv(out / "fields_t0p5.csv")
    assert header == ["x", "rho", "flux"]
    assert len(data) == 32
    header, spectral = read_csv(out / "spectral_t1.csv")
    assert header == ["xi", "re_rho_hat", "im_rho_hat"]
    assert len(spectral) == 21  # 2*modes + 1


def test_cmd_build_gds_kinetic_export(tmp_path):
    out = tmp_path / "kin"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"include_kinetic": True, "modes": 6, "xi_max": 0.6,
                               "n_velocity": 8, "x_points": 16, "times": [1.0]}))
    assert run(["build-gds", "--config", cfg, "--out", out]) == 0
    header, data = read_csv(out / "kinetic_t1.csv")
    assert header[0] == "x" and len(header) == 9  # x plus one column per node
    doc = json.loads((out / "kinetic_t1_columns.json").read_text())
    assert len(doc["velocity_nodes"]) == 8
    assert doc["columns"] == header


def test_cmd_solve_direct(tmp_path):
    out = tmp_path / "direct"
    assert run(["solve-direct", "--modes", "4", "--xi-max", "0.6",
                "--n-velocity", "32", "--x-points", "16", "--out", out]) == 0
    files = sorted((out / "trajectories").glob("mode_*.csv"))
    assert len(files) == 8  # both sign components
    header, data = read_csv(files[0])
    assert header == ["t", "re_rho_hat", "im_rho_hat", "gds_distance"]
    assert data[0, 0] == 0.0 and data[-1, 0] == 5.0


def test_cmd_compare_pass_and_inject(tmp_path):
    assert run(["compare", *FAST, "--out", tmp_path / "ok"]) == 0
    assert run(["compare", *FAST, "--inject-lambda-error", "1e-3",
                "--out", tmp_path / "bad"]) == 1
    doc = json.loads((tmp_path / "bad" / "compare.json").read_text())
    assert doc["all_passed"] is False


def test_cmd_properties(tmp_path):
    out = tmp_path / "props"
    assert run(["properties", "--n-velocity", "64", "--modes", "10",
                "--xi-max", "0.6", "--x-points", "32", "--out", out]) == 0
    doc = json.loads((out / "properties.json").read_text())
    assert doc["all_passed"] is True
    names = [r["name"] for r in doc["rows"]]
    assert "mass_conservation_max" in names
    assert "transfer_normalization_max" in names
    assert "dense_eigenvalue_gap_max" in names


def test_properties_fail_fast_stops_early(tmp_path):
    out = tmp_path / "ff"
    # an impossible tolerance makes the first row fail; fail-fast keeps it short
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"weights_sum": -1.0},
                               "n_velocity": 32, "modes": 10, "xi_max": 0.6,
                               "x_points": 32}))
    assert run(["properties", "--config", cfg, "--fail-fast", "--out", out]) == 1
    doc = json.loads((out / "properties.json").read_text())
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["passed"] is False


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["compare", *FAST, "--seed", "7", "--out", a]) == 0
    assert run(["compare", *FAST, "--seed", "7", "--out", b]) == 0
    assert (a / "compare.csv").read_bytes() == (b / "compare.csv").read_bytes()
    assert (a / "compare.json").read_bytes() == (b / "compare.json").read_bytes()


def test_headers_carry_version_and_hash(tmp_path):
    out = tmp_path / "h"
    assert run(["compare", *FAST, "--out", out]) == 0
    text = (out / "compare.csv").read_text()
    assert text.startswith("# kinrelax 0.1.0")
    assert "# config-hash: " in text
    assert run(["dispersion", "--out", out]) == 0
    disp = (out / "dispersion.csv").read_text()
    assert "kinrelax 0.1.0" in disp and "config_hash" in disp


def test_runtime_validation_maps_to_exit_2(tmp_path):
    # an rk4 step far above the stability bound is caught, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "rk4", "dt": 2.0, "modes": 4,
                               "xi_max": 0.6, "n_velocity": 32, "x_points": 16}))
    assert run(["solve-direct", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("bad", [
    {"dt": float("nan")},
    {"dt": float("inf")},
    {"t_final": float("nan")},
    {"t_final": float("inf")},
    {"times": [0.5, float("nan")]},
])
def test_config_rejects_nonfinite_values(bad):
    with pytest.raises(ConfigError, match="finite"):
        RunConfig.from_dict(bad)


def test_compare_nan_time_is_a_config_error(tmp_path):
    # used to report "FAIL max=nan" with the tolerance-failure exit code 1
    assert run(["compare", *FAST, "--times", "nan", "--out", tmp_path]) == 2
    assert not (tmp_path / "compare.json").exists()


def test_build_gds_infinite_time_is_a_config_error(tmp_path):
    # used to exit 0 and write fields_tinf.csv / spectral_tinf.csv
    assert run(["build-gds", *FAST, "--times", "inf", "--out", tmp_path]) == 2
    assert not list(tmp_path.glob("*tinf*"))


def test_rk4_compare_infinite_time_is_a_config_error(tmp_path, capsys):
    # used to die with an OverflowError traceback and exit code 1
    assert run(["compare", *FAST, "--method", "rk4", "--times", "1,inf",
                "--out", tmp_path]) == 2
    assert "finite" in capsys.readouterr().err


def test_solve_direct_nonfinite_step_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"dt": NaN, "modes": 4, "xi_max": 0.6, "n_velocity": 32, '
                   '"x_points": 16}')
    assert run(["solve-direct", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_compare_nan_lambda_error_is_a_config_error(tmp_path):
    # used to report "FAIL max=nan" with the tolerance-failure exit code 1
    assert run(["compare", *FAST, "--inject-lambda-error", "nan", "--out", tmp_path]) == 2


def test_profile_flag_over_a_non_object_profile_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "gaussian-bump"}))
    assert run(["build-gds", *FAST, "--config", cfg, "--out", tmp_path]) == 2
    assert run(["build-gds", *FAST, "--config", cfg, "--profile", "gaussian-bump",
                "--out", tmp_path]) == 0


def test_compare_at_long_times_passes(tmp_path):
    # states decayed below the square root of the smallest double used to
    # make the ray distance raise "zero-norm state" and exit 2
    assert run(["compare", "--modes", "10", "--times", "2000", "--out", tmp_path]) == 0


def test_rk4_compare_with_uncountable_steps_is_a_config_error(tmp_path, capsys):
    # span / dt overflowed to inf inside math.ceil: an OverflowError traceback
    assert run(["compare", *FAST, "--method", "rk4", "--times", "1e308",
                "--out", tmp_path]) == 2
    assert "not finite" in capsys.readouterr().err


def test_build_gds_below_the_usable_band_is_a_config_error(tmp_path, capsys):
    # lambda = b - 1 is rounding noise at |xi| <= 1e-9: used to exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi_max": 1e-9, "modes": 2}))
    with pytest.warns(RuntimeWarning, match="near-edge"):
        assert run(["build-gds", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "b = xi*c" in capsys.readouterr().err


def _per_draw_reference(config):
    """The battery's random-draw rows computed the old way: one size-N draw
    at a time, one check per draw, in the battery's stream order."""
    grid = build_grid(config.n_velocity)
    rng = np.random.default_rng(config.seed)
    rows = {"mass_conservation_max": 0.0, "self_adjoint_max": 0.0,
            "negative_semidefinite_max": -np.inf, "operator_norm_ratio": 0.0}
    for _ in range(1000):
        f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
        rows["mass_conservation_max"] = max(rows["mass_conservation_max"],
                                            check_mass_conservation(f, grid))
    for _ in range(200):
        f = rng.standard_normal(grid.order)
        g = rng.standard_normal(grid.order)
        rows["self_adjoint_max"] = max(rows["self_adjoint_max"],
                                       check_self_adjoint(f, g, grid))
    for _ in range(200):
        f = rng.standard_normal(grid.order)
        rows["negative_semidefinite_max"] = max(rows["negative_semidefinite_max"],
                                                check_negative_semidefinite(f, grid))
    rng = np.random.default_rng(config.seed)  # operator_norm_bound_check's own stream
    for _ in range(1000):
        f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
        ratio = norm_phi(apply_collision(f, grid), grid) / norm_phi(f, grid)
        rows["operator_norm_ratio"] = max(rows["operator_norm_ratio"], ratio)
    return rows


def test_property_battery_matches_per_draw_reference():
    config = RunConfig.from_dict({"n_velocity": 24, "modes": 10, "xi_max": 0.6,
                                  "x_points": 32, "seed": 3})
    rows = {name: value for name, value, _ in _property_rows(config)}
    for name, expected in _per_draw_reference(config).items():
        assert rows[name] == expected, name  # bitwise: same draws, same row sums
