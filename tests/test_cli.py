import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import PASS_ROWS
from kinrelax import __version__, artifacts, cli
from kinrelax.cli import (DEFAULT_CONFIG, REFERENCE_CURVE_XI, ConfigError, RunConfig,
                          _property_rows, main, write_csv)
from kinrelax.collision import (apply_collision, check_mass_conservation,
                                check_negative_semidefinite, check_self_adjoint)
from kinrelax.diagnostics import direct_unit_modes
from kinrelax.direct import output_times
from kinrelax.dispersion import build_table
from kinrelax.gds import (evolve_density, lift_to_kinetic, make_band_limited_density,
                          to_physical)
from kinrelax.quadrature import SQRT_PI, build_grid, norm_phi

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
    {"profile": {"name": "gaussian-bump", "time": 3.0}},  # moved only the hash
    {"tolerances": {"gds_vs_direct": "abc"}},
    {"tolerances": {"gds_vs_direct": float("nan")}},
    *({key: float("inf")} for key in ("n_velocity", "modes", "x_points", "seed",
                                      "dispersion_samples", "identity_samples",
                                      "output_stride")),
    {"tolerances": []},  # meant the defaults
    {"tolerances": None},
    {"dt": "0.01"},
    {"times": [True, 2]},
])
def test_config_rejections(bad):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


@pytest.mark.parametrize("bad", [
    {"include_kinetic": "false"}, {"fail_fast": "no"}, {"include_kinetic": 0},
    {"modes": 10.9}, {"modes": 64.0}, {"n_velocity": True}, {"seed": "7"},
    {"output_stride": None},
    {"xi_max": True}, {"dt": "0.01"}, {"times": [True, 2]},
    {"profile": {"name": "gaussian-bump", "sigma": True}},
    {"tolerances": {"gds_vs_direct": True}}, {"tolerances": []},
    {"out": None}, {"out": 7}, {"out": {"a": 1}}, {"method": None}, {"method": 7},
])
def test_typed_keys_take_only_json_booleans_and_integers(tmp_path, capsys, monkeypatch,
                                                         bad):
    # bool("false") turned the kinetic export on, int(10.9) ran 10 modes under a
    # hash that recorded 10.9, float(True) ran xi_max 1.0, [] meant the default
    # tolerances, and str() wrote {"out": null} into ./None
    (key, value), = bad.items()
    with pytest.raises(ConfigError, match=f"{key!r}: expected a JSON"):
        RunConfig.from_dict(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    monkeypatch.chdir(tmp_path)  # no --out: it would override the file's out
    assert run(["dispersion", "--config", cfg]) == 2
    assert f"config error: invalid config value for {key!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]  # no ./out, no ./None


def test_typed_keys_keep_their_json_values():
    cfg = RunConfig.from_dict({"include_kinetic": True, "fail_fast": False, "modes": 10})
    assert cfg.include_kinetic is True and cfg.fail_fast is False
    assert type(cfg.modes) is int and cfg.modes == 10


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


@pytest.mark.parametrize("data, digest", [
    ({}, "4631ce23e07e"),
    ({"tolerances": {"gds_vs_direct": 1e-5}}, "4b4ff52d287d"),
    ({"profile": {"name": "hann-band"}}, "90824a39df3d"),
    ({"method": "rk4", "times": [1, 2]}, "dab113da81f9"),  # hashed as given, not coerced
])
def test_config_hash_is_pinned(data, digest):
    # every artifact carries this hash: a change of defaults, key set or
    # hashed form moves it and is an artifact change
    assert RunConfig.from_dict(data).hash() == digest


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


def test_cmd_dispersion_writes_the_table_header(tmp_path):
    out = tmp_path / "disp"
    assert run(["dispersion", "--out", out]) == 0
    lines = (out / "dispersion.csv").read_text().splitlines()
    assert lines[:8] == ["# kinrelax dispersion table format v1", "# artifact=kinrelax 0.1.0",
                         "# config_hash=4631ce23e07e", "# count=420", "# edge_margin=1e-06",
                         "# xi_min=1e-06", "# xi_residual_tol=1e-11", "xi,c,b,lambda"]
    doc = json.loads((out / "dispersion.json").read_text())
    assert doc["format_version"] == 1
    assert doc["metadata"] == {"artifact": "kinrelax 0.1.0", "config_hash": "4631ce23e07e",
                               "count": 420, "edge_margin": 1e-06, "xi_min": 1e-06,
                               "xi_residual_tol": 1e-11}


def test_cmd_build_gds(tmp_path):
    out = tmp_path / "gds"
    assert run(["build-gds", *FAST, "--out", out]) == 0
    header, data = read_csv(out / "fields_t0p5.csv")
    assert header == ["x", "rho", "flux"]
    assert len(data) == 32
    header, spectral = read_csv(out / "spectral_t1.csv")
    assert header == ["xi", "re_rho_hat", "im_rho_hat"]
    assert len(spectral) == 21  # 2*modes + 1


@pytest.mark.parametrize("times, named", [("1.0000001,1.0000002", "1.0000001 and 1.0000002"),
                                          ("2,2", "2.0 and 2.0")])
def test_build_gds_times_that_share_a_file_tag_are_a_config_error(tmp_path, capsys, times,
                                                                  named):
    # files are tagged f"{t:g}", six digits: the second time's files overwrote the
    # first's, and build-gds exited 0 reporting twice the files it left
    args = ["--times", times, "--modes", "4", "--x-points", "16"]
    assert run(["build-gds", *args, "--out", tmp_path / "gds"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: times {named} share the file tag ")
    assert err.count("\n") == 1 and not list((tmp_path / "gds").iterdir())
    # compare writes no file per time: its rows follow the given times
    assert run(["compare", *args, "--out", tmp_path / "cmp"]) == 0


def test_file_tags_reject_values_that_share_a_tag():
    assert cli._file_tags([0.45, -0.45, 0.450001], "xs") == {
        "0p45": 0.45, "m0p45": -0.45, "0p450001": 0.450001}
    with pytest.raises(ValueError, match=r"^active frequencies 0\.45 and 0\.45000036 share "
                                         "the file tag '0p45'"):
        cli._file_tags([0.45, 0.45 + 0.9 / 2500000], "active frequencies")


def test_solve_direct_modes_that_share_a_file_tag_are_a_config_error(tmp_path, capsys):
    # near xi = 1.5, f"{xi:g}" keeps five decimals and the modes lie 8.5e-6 apart:
    # trajectory files overwrote each other, and 182 reported trajectories left 156
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modes": 200000, "x_points": 524288, "xi_max": 1.7,
                               "profile": {"name": "gaussian-bump", "sigma": 1e-5,
                                           "center": 1.5}}))
    assert run(["solve-direct", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: active frequencies ") and "share the file tag" in err
    assert not list((tmp_path / "o").iterdir())


def test_build_gds_fields_that_overflow_are_a_config_error(tmp_path, capsys):
    # finite samples whose synthesis overflows wrote inf densities and exited 0;
    # then numpy's overflow warnings came before the message (exit 3 as errors)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": {"name": "gaussian-bump", "sigma": 0.18,
                                           "center": 0.45, "amplitude": 1e308},
                               "modes": 4, "x_points": 16}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["build-gds", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == ("config error: density field is not finite; lower the "
                                       "spectrum's amplitude\n")
    assert not list((tmp_path / "o").glob("fields_*.csv"))


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


@pytest.mark.parametrize("chunk", [artifacts.CHUNK_VALUES, 7])
def test_solve_direct_files_hold_their_own_modes_rows(tmp_path, monkeypatch, chunk):
    # the trajectories share one formatter pass; at 7 values a pass, with no small
    # path, each file takes many passes and its rows straddle them
    monkeypatch.setattr(artifacts, "CHUNK_VALUES", chunk)
    monkeypatch.setattr(artifacts, "SMALL_VALUES", 0)
    config = RunConfig.from_dict({"modes": 6, "xi_max": 0.6, "n_velocity": 16})
    out = tmp_path / "o"
    assert cli.cmd_solve_direct(config, out) == 0
    rho0 = cli._make_profile(config)
    times = output_times(config.t_final, config.dt, config.output_stride)
    unit, dist = direct_unit_modes(rho0, cli._table_for(config, rho0.active_frequencies()),
                                   build_grid(16), times, method=config.solver_method,
                                   dt=config.dt)
    for k, i in enumerate(rho0.active_indices()):  # the per-mode writer it replaced
        xi = float(rho0.xi_grid[i])
        d = rho0.rho_hat[i] * unit[:, k]
        _reference_write_csv(tmp_path / "ref.csv", ("t", "re_rho_hat", "im_rho_hat",
                                                     "gds_distance"),
                             np.column_stack([times, d.real, d.imag, dist[:, k]]), config,
                             extra_meta=(f"xi={xi:.17g}", f"method={config.solver_method}"))
        path = out / "trajectories" / f"mode_{cli._tag(xi)}.csv"
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(list((out / "trajectories").iterdir())) == len(rho0.active_indices())


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


def test_properties_below_the_resolving_order_fails_the_four_identity_rows(tmp_path):
    # 33 nodes do not resolve the transfer function's pole on the default
    # identity band 0.75 (54 is the least order that passes): exit 1, with
    # the four 1e-8 rows about 75x over and every other row passing
    out = tmp_path / "props"
    assert run(["properties", "--n-velocity", "33", "--out", out]) == 1
    rows = json.loads((out / "properties.json").read_text())["rows"]
    failed = {r["name"]: r["value"] / r["tolerance"] for r in rows if not r["passed"]}
    assert sorted(failed) == ["dense_eigenvalue_gap_max", "eigenpair_residual_max",
                              "transfer_flux_max", "transfer_normalization_max"]
    assert all(50.0 < ratio < 100.0 for ratio in failed.values())
    assert len(rows) > len(failed)


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


def test_compare_json_carries_version_and_hash(tmp_path):
    assert run(["compare", *FAST, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["artifact"] == "kinrelax 0.1.0"
    assert f"# config-hash: {doc['config_hash']}" in (tmp_path / "compare.csv").read_text()
    assert doc["all_passed"] is True
    assert [r["name"] for r in doc["reports"]] == ["gds-vs-direct"]


def test_csv_rows_match_per_value_formatting(tmp_path):
    values = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, 0.1, 2]
    rows = [values, np.array(values), [np.float64(v) for v in values]]
    write_csv(tmp_path / "v.csv", [f"c{j}" for j in range(len(values))], rows,
              RunConfig.from_dict({}))
    lines = (tmp_path / "v.csv").read_text().splitlines()[-3:]
    assert lines == [",".join(f"{v:.17g}" for v in row) for row in rows]


def _reference_write_csv(path, columns, rows, config, extra_meta=()):
    """write_csv as it was before rows were streamed: one joined string."""
    template = ",".join(["%.17g"] * len(columns))
    lines = [f"# kinrelax {__version__}", f"# config-hash: {config.hash()}",
             *(f"# {item}" for item in extra_meta), ",".join(columns)]
    lines.extend(template % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


@st.composite
def float_rows(draw):
    """A 2-D float array: random magnitudes over the whole double range with
    signed zeros, subnormals, extremes, NaN and +-inf scattered in."""
    n = draw(st.sampled_from([0, 1, PASS_ROWS - 1, PASS_ROWS, PASS_ROWS + 1])
             | st.integers(0, 40))
    ncols = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice([-1.0, 1.0], (n, ncols)) * 10.0 ** rng.uniform(-323, 308, (n, ncols))
    specials = st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
    for value in draw(st.lists(specials | st.floats(), max_size=8)):
        if n:
            rows[rng.integers(n), rng.integers(ncols)] = value
    return rows


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(float_rows(), st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                                      max_size=12), max_size=3))
def test_csv_writer_reproduces_the_reference_bytes(tmp_path, rows, extra_meta):
    config = RunConfig.from_dict({})
    columns = [f"c{j}" for j in range(rows.shape[1])]
    write_csv(tmp_path / "new.csv", columns, rows, config, extra_meta)
    _reference_write_csv(tmp_path / "ref.csv", columns, rows, config, extra_meta)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _numeric_rows(path):
    """The data rows of a CSV artifact, parsed by numpy after its header."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=header + 1, ndmin=2)


def test_artifacts_hold_the_library_arrays_exactly(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"include_kinetic": True, "dispersion_samples": 7,
                               "modes": 6, "xi_max": 0.6, "n_velocity": 8,
                               "x_points": 16, "times": [0.5, 2.0]}))
    out = tmp_path / "o"
    assert run(["dispersion", "--config", cfg, "--out", out]) == 0
    assert run(["build-gds", "--config", cfg, "--out", out]) == 0

    xi = np.concatenate([np.linspace(0.01, SQRT_PI - 1e-3, 7), REFERENCE_CURVE_XI])
    table = build_table(np.concatenate([-xi, xi]))
    csv = _numeric_rows(out / "dispersion.csv")
    assert csv.tobytes() == np.column_stack([table.xi, table.c, table.b, table.lam]).tobytes()
    points = json.loads((out / "dispersion.json").read_text())["points"]
    for key, column in (("xi", table.xi), ("c", table.c), ("b", table.b), ("a", table.a),
                        ("lambda", table.lam)):
        assert np.array([p[key] for p in points]).tobytes() == column.tobytes(), key

    grid = build_grid(8)
    params = {k: v for k, v in DEFAULT_CONFIG["profile"].items() if k != "name"}
    rho0 = make_band_limited_density("gaussian-bump", xi_max=0.6, modes=6, **params)
    modes_table = build_table(rho0.active_frequencies())
    for t, tag in ((0.5, "0p5"), (2.0, "2")):
        rho_t = evolve_density(rho0, t, modes_table)
        snap = to_physical(lift_to_kinetic(rho_t, modes_table, grid), 16, include_f=True)
        for name, columns in (("spectral", [rho_t.xi_grid, rho_t.rho_hat.real,
                                            rho_t.rho_hat.imag]),
                              ("fields", [snap.x_grid, snap.rho, snap.flux]),
                              ("kinetic", [snap.x_grid, snap.f])):
            data = _numeric_rows(out / f"{name}_t{tag}.csv")
            assert data.tobytes() == np.column_stack(columns).tobytes(), (name, t)


def test_out_that_cannot_be_written_is_a_config_error(tmp_path, capsys):
    # an --out naming a file used to end in a FileExistsError or
    # NotADirectoryError traceback and exit 1, the tolerance-failure code
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "taken"
    (taken / "dispersion.csv").mkdir(parents=True)  # an artifact path that is a directory
    for out, named in ((blocker, blocker), (blocker / "sub", blocker / "sub"),
                       (taken, taken / "dispersion.csv")):
        assert run(["dispersion", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output to {named}: "), err
        assert err.count("\n") == 1


@pytest.mark.parametrize("exc", [KeyError("xi=0.3"), ArithmeticError("no root"),
                                 RuntimeError("boom")])
def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch, exc):
    # used to end in a traceback with exit 1, the tolerance-failure code
    def broken(config, out):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "compare", broken)
    assert run(["compare", "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"
    assert "Traceback" not in err


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["build-gds", "compare", "solve-direct", "properties"])
def test_profile_that_evaluates_to_nan_is_a_config_error(tmp_path, capsys, command):
    # sigma**2 underflows to 0, so the sample at the centre is 0/0: build-gds and
    # solve-direct wrote nan fields with exit 0, compare reported "FAIL max=nan";
    # numpy's divide warnings then came before the one message line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"xi_max": 0.9, "modes": 2, "x_points": 8, "n_velocity": 8,
                               "profile": {"name": "gaussian-bump", "sigma": 1e-200,
                                           "center": 0.45}}))
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == "config error: spectrum samples must be finite\n"


def test_compare_nan_time_is_a_config_error(tmp_path):
    # used to report "FAIL max=nan" with the tolerance-failure exit code 1
    assert run(["compare", *FAST, "--times", "nan", "--out", tmp_path]) == 2
    assert not (tmp_path / "compare.json").exists()


def test_compare_empty_times_is_a_config_error(tmp_path, capsys):
    # used to say "times must be nonnegative" of a list with no time in it
    assert run(["compare", *FAST, "--times", ",", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "empty" in err and "nonnegative" not in err
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


@pytest.mark.parametrize("bad, message", [
    ({"t_final": 1e308, "dt": 1e-300}, "not finite"),  # exit 3: an OverflowError
    ({"dt": 1e-320}, "not finite"),
    ({"t_final": 1e-10, "dt": 0.01}, "rounds to no step"),  # exit 0, one row at t = 0
])
def test_solve_direct_step_count_is_a_config_error(tmp_path, capsys, bad, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**bad, "modes": 4, "xi_max": 0.6, "n_velocity": 32,
                               "x_points": 16}))
    assert run(["solve-direct", "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not list((tmp_path / "o").rglob("*.csv"))


def test_solve_direct_stride_past_the_step_count_records_both_ends(tmp_path, capsys):
    # a stride past int64 made np.arange return an object array: a TypeError in the
    # CSV formatter (exit 3) once the trajectories hold SMALL_VALUES values or more
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_stride": 10**30, "modes": 16, "xi_max": 0.6,
                               "n_velocity": 32, "x_points": 64}))
    assert run(["solve-direct", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert capsys.readouterr().err == ""
    paths = sorted((tmp_path / "o" / "trajectories").glob("mode_*.csv"))
    assert len(paths) == 32
    for path in paths:
        _, data = read_csv(path)
        assert data[:, 0].tolist() == [0.0, 5.0]


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
    err = capsys.readouterr().err
    # compare sets no dt: the step is the RK4 default, which the message used to call dt
    assert "not finite" in err and "the RK4 default step" in err and "dt=" not in err


def test_rk4_compare_past_full_underflow_passes(tmp_path):
    # about 2e302 RK4 steps: a per-step loop never ended; powers of T4(hA)
    # take about 1,000 squarings, and both sides underflow to 0
    assert run(["compare", "--modes", "4", "--method", "rk4", "--times", "1e300",
                "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["reports"][0]["max_residual"] == 0.0


def test_exact_compare_past_full_underflow_passes(tmp_path):
    # exp(mu t) of the eigendecomposition overflowed: a nan reported as a failure
    assert run(["compare", "--modes", "4", "--times", "1e308", "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["reports"][0]["max_residual"] == 0.0


def test_solve_direct_times_flag_is_a_config_error(tmp_path, capsys):
    # used to exit 0 and silently write the default trajectories
    assert run(["solve-direct", "--modes", "4", "--times", "1e308",
                "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("t_final", "dt", "output_stride"))
    assert not (tmp_path / "trajectories").exists()


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
    rng = np.random.default_rng(config.seed)  # the mass row's draws again
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


# ------------------------------------------------------------------ fuzz

NAN, INF = math.nan, math.inf
sf = st.sampled_from

# Each SCHEMA key but "out": (valid values, boundary values), sized so that no
# run holds more than 4 modes, 8 velocities, 32 points, 5 samples or 1e4 steps.
FUZZ_KEYS = {
    "n_velocity": (sf([2, 3, 8]), sf([1, 0, -4])),
    "xi_max": (sf([0.3, 0.9, 1.7]), sf([0.0, SQRT_PI, -0.1, 1e-300, NAN])),
    "modes": (sf([1, 2, 4]), sf([0, -1])),
    "x_points": (sf([16, 32]), sf([0, 8, 12, -16])),
    "profile": (st.fixed_dictionaries(
        {"name": sf(["gaussian-bump", "hann-band", "single-mode"])},
        optional={"amplitude": sf([0.5, 2]), "sigma": sf([0.1, 0.3]),
                  "center": sf([0.2, 0.45]), "xi0": sf([0.1, 0.3])}),
        sf([{"name": "mystery"}, {"name": "gaussian-bump", "sigma": 0.0},
            {"name": "single-mode", "xi0": 5.0}, {"name": "hann-band", "amplitude": 0.0},
            {"name": "hann-band", "amplitude": 1e308}, {"name": "hann-band", "time": 1.0}])),
    "times": (st.lists(sf([0.0, 0.5, 2.0, 10.0]), min_size=1, max_size=3),
              sf([[], [-1.0], [NAN], [INF], [1e308]])),
    "method": (sf(["exact", "rk4"]), sf(["euler", ""])),
    "seed": (sf([0, 7]), sf([-1, 2**64])),
    "xi_min": (sf([1e-3, 1e-2]), sf([0.0, 0.5, 1.7, -0.1, SQRT_PI])),
    "edge_margin": (sf([1e-3, 1e-2]), sf([0.0, 1.0, -1e-3, SQRT_PI])),
    "dispersion_samples": (sf([2, 5]), sf([1, 0])),
    "identity_band": (sf([0.1, 0.75]), sf([1.75, 0.0, SQRT_PI])),
    "identity_samples": (sf([2, 5]), sf([1, -2])),
    "dt": (sf([1e-4, 0.01, 0.05]), sf([0.0, -0.01, 5.0, INF, NAN, 1e-320])),
    "t_final": (sf([0.05, 1.0]), sf([1e-10, 0.0, -1.0, INF])),
    "output_stride": (sf([1, 10]), sf([10**30, 0])),
    "include_kinetic": (st.booleans(), sf([0, "false"])),
    "inject_lambda_error": (sf([0.0, 1e-3]), sf([-1e308, 1e308, NAN])),
    "fail_fast": (st.booleans(), sf(["no"])),
    "tolerances": (sf([{}, {"gds_vs_direct": 1e-5}, {"weights_sum": -1.0}]),
                   sf([{"bogus": 1.0}, [], {"eigenpair": 1e300}, {"eigenpair": INF}])),
}
WRONG = [None, True, "1", [1], {}]  # no SCHEMA key takes all of these types
# always set: their defaults run 128 modes at 64 velocities, 200 samples, 500 steps
SIZES = ("n_velocity", "modes", "x_points", "dispersion_samples", "identity_samples",
         "t_final", "dt")


@st.composite
def config_documents(draw):
    """Valid values for the size keys and some others, then perhaps one key at a
    boundary value and one wrongly typed, so that most documents reach a command."""
    valid = {key: values for key, (values, _) in FUZZ_KEYS.items()}
    doc = draw(st.fixed_dictionaries({key: valid.pop(key) for key in SIZES},
                                     optional=valid))
    if draw(st.booleans()):
        key = draw(sf(sorted(FUZZ_KEYS)))
        doc[key] = draw(FUZZ_KEYS[key][1])
    if draw(st.booleans()):
        doc[draw(sf(sorted(FUZZ_KEYS)))] = draw(sf(WRONG))
    return doc


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sf(sorted(cli.COMMANDS)), config_documents())
def test_every_config_document_ends_in_a_documented_exit(tmp_path, capsys, command, doc):
    # exit 3 (an internal error) on any document is a fault of the program
    (tmp_path / "fuzz.json").write_text(json.dumps(doc))
    code = run([command, "--config", tmp_path / "fuzz.json", "--out", tmp_path / "o"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "internal error" not in err and "Traceback" not in err
