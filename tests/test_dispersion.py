import json
import math
import os
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import PASS_ROWS, tracemalloc_peak_kb
from kinrelax import artifacts, dispersion, quadrature
from kinrelax.artifacts import CHUNK_VALUES, SMALL_VALUES, render_each, write_csv
from kinrelax.cli import main
from kinrelax.diagnostics import direct_unit_modes
from kinrelax.direct import output_times, propagate
from kinrelax.dispersion import (_ERFCX_Q, DEFAULT_EDGE_MARGIN, DEFAULT_XI_MIN, XI_RESIDUAL_TOL,
                                 DispersionTable, UnsupportedFrequencyError, build_table,
                                 c_of_xi, erfcx, transfer_function, xi_of_c, xi_of_c_quadrature)
from kinrelax.gds import lift_to_kinetic, make_band_limited_density, to_physical
from kinrelax.quadrature import SQRT_PI, build_grid


def test_closed_form_validated_against_quadrature():
    # gate for trusting the erfcx evaluation anywhere else
    c = np.logspace(-4, 4, 25)
    slow = xi_of_c_quadrature(c)
    assert np.all(np.abs(xi_of_c(c) - slow) <= 1e-10 * np.abs(slow)), c


def test_batched_quadrature_is_bitwise_the_per_value_calls():
    # each value's row stops at its own level, the sum of its own call
    c = np.concatenate([-np.logspace(-4, 4, 25), np.logspace(-4, 4, 25)])
    batched = xi_of_c_quadrature(c)
    assert batched.shape == c.shape
    assert np.array_equal(batched, [xi_of_c_quadrature(float(x)) for x in c])
    square = xi_of_c_quadrature(c[25:].reshape(5, 5))
    assert square.shape == (5, 5) and np.array_equal(square.ravel(), batched[25:])
    assert type(xi_of_c_quadrature(0.5)) is float
    assert type(xi_of_c_quadrature(np.float64(-2.0))) is float
    with pytest.raises(ValueError, match="c = 0"):
        xi_of_c_quadrature(np.array([1.0, 0.0]))


@given(st.floats(-4.0, 4.0), st.sampled_from([-1.0, 1.0]))
def test_closed_form_matches_quadrature_at_random_c(log10_c, sign):
    c = sign * 10.0**log10_c
    slow = xi_of_c_quadrature(c)
    assert abs(xi_of_c(c) - slow) <= 1e-10 * abs(slow)
    assert xi_of_c_quadrature(-c) == -slow


def test_quadrature_oracle_uses_neither_erfcx_nor_hermite_nodes(monkeypatch):
    cs = np.logspace(-4, 4, 9)
    expected = xi_of_c(cs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the quadrature oracle must not use this")

    monkeypatch.setattr(dispersion, "erfcx", forbidden)
    monkeypatch.setattr(quadrature, "hermgauss", forbidden)
    with pytest.raises(AssertionError, match="must not use"):  # the guard is live
        xi_of_c(1.0)
    assert np.all(np.abs(xi_of_c_quadrature(cs) - expected) <= 1e-10 * expected)


def test_erfcx_matches_scipy_and_is_exact_at_the_ends():
    x = np.concatenate([np.linspace(0.0, 30.0, 300_001), np.logspace(-320, 308, 300_001)])
    assert np.max(np.abs(erfcx(x) / scipy.special.erfcx(x) - 1.0)) <= 2e-15
    assert erfcx(np.array([0.0, np.inf])).tolist() == [1.0, 0.0]
    assert erfcx(0.5).shape == () and erfcx(np.ones((2, 3))).shape == (2, 3)
    for sweep in (np.linspace(0.0, 30.0, 10**6), np.logspace(-320, 308, 10**6)):
        assert np.all(np.diff(erfcx(sweep)) <= 0.0)


def test_erfcx_coefficients_are_the_documented_fit():
    # Chebyshev interpolation of q(z) = log(erfcx(x)/t)/(1 - z), t = 2/(2 + x) =
    # (1 + z)/2, at 120 nodes in 60 digits, its first 28 terms as monomials in z
    mp, m, n = mpmath, 120, 28

    def q(z):
        t = (1 + z) / 2
        x = 2 / t - 2
        return mp.log(mp.exp(x * x) * mp.erfc(x) / t) / (1 - z)

    with mp.workdps(60):
        theta = [mp.pi * (j + mp.mpf(1) / 2) / m for j in range(m)]
        values = [q(mp.cos(th)) for th in theta]
        cheb = [2 * mp.fsum(v * mp.cos(i * th) for v, th in zip(values, theta)) / m
                for i in range(n)]
        cheb[0] /= 2
        mono, t_prev, t_cur = [mp.mpf(0)] * n, [1], [0, 1]
        for i in range(n):  # T_i in monomials, by T_(i+1) = 2z T_i - T_(i-1)
            for j, coeff in enumerate(t_prev):
                mono[j] += cheb[i] * coeff
            t_prev, t_cur = t_cur, [2 * a - b for a, b in
                                    zip([0, *t_cur], [*t_prev, 0, 0])]
        fit = [float(a) for a in mono]
    stored = _ERFCX_Q[::-1, :, 0].T.ravel()  # a_j at j = 4i + l
    assert stored.tolist() == fit


def test_xi_rejects_zero():
    with pytest.raises(ValueError):
        xi_of_c(0.0)
    with pytest.raises(ValueError):
        xi_of_c_quadrature(0.0)


def test_xi_is_odd():
    rng = np.random.default_rng(2)
    for c in rng.uniform(0.01, 20.0, size=20):
        assert xi_of_c(-float(c)) == -xi_of_c(float(c))


def test_small_c_limit():
    assert abs(xi_of_c(1e-6) - SQRT_PI) < 1e-5


def test_large_c_decay():
    assert xi_of_c(1e4) < 2e-4


def test_value_at_one():
    # frozen from the adaptive quadrature of the defining integral
    assert abs(xi_of_c(1.0) - 0.757872156141312) < 1e-9


def test_strictly_decreasing_and_in_range():
    c = np.logspace(-4, 4, 1000)
    xi = np.array([xi_of_c(float(x)) for x in c])
    assert np.all(np.diff(xi) < 0)
    assert np.all((xi > 0) & (xi < SQRT_PI))


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_inverse_roundtrip_in_c(c):
    assert abs(c_of_xi(xi_of_c(c)) - c) < 1e-9


def test_roundtrip_residual_in_xi():
    for xi in np.linspace(0.01, SQRT_PI - 0.01, 50):
        assert abs(xi_of_c(c_of_xi(float(xi))) - xi) < 1e-11


def test_divergence_toward_zero_frequency():
    assert c_of_xi(0.01) > 50.0


def test_out_of_band_rejected():
    # subnormal |xi| lies in the band, but its root c overflows to inf
    tiny = (5e-324, -5e-324, 1e-310, -1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-edge warning
        for bad in (0.0, SQRT_PI, -SQRT_PI, 2.0, -3.0) + tiny:
            with pytest.raises(UnsupportedFrequencyError):
                c_of_xi(bad)
        for bad in tiny:
            with pytest.raises(UnsupportedFrequencyError, match=f"xi={bad!r}"):
                c_of_xi(np.array([0.3, bad]))


def test_edge_proximity_warns():
    with pytest.warns(RuntimeWarning, match="band"):
        c_of_xi(SQRT_PI - 1e-8)
    with pytest.warns(RuntimeWarning, match="band"):
        c_of_xi(1e-9)


def test_inversion_at_tiny_frequencies():
    # the former Newton polish divided by zero here
    for xi in (1e-12, 2e-12):
        with pytest.warns(RuntimeWarning, match="band"):
            c = c_of_xi(xi)
        assert isinstance(c, float)
        assert abs(xi_of_c(c) - xi) <= 100 * XI_RESIDUAL_TOL


def test_array_inversion_matches_scalar_calls_bitwise():
    xs = np.concatenate([np.logspace(-12, 0, 300),
                         np.linspace(0.5, SQRT_PI - 1e-9, 300)])
    xs = np.concatenate([-xs, xs])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cs = c_of_xi(xs)
        scalar = np.array([c_of_xi(float(x)) for x in xs])
    assert cs.shape == xs.shape
    assert np.array_equal(cs, scalar)
    assert np.max(np.abs(xi_of_c(cs) - xs)) <= 100 * XI_RESIDUAL_TOL


def test_near_edge_frequencies_warn_once_per_call():
    xs = np.concatenate([np.logspace(-12, -7, 20), [0.5],
                         SQRT_PI - np.logspace(-9, -7, 20)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c_of_xi(xs)
    assert len(caught) == 1
    assert caught[0].category is RuntimeWarning
    assert "40 near-edge frequencies" in str(caught[0].message)
    assert "first xi=1e-12" in str(caught[0].message)


# xi_min and the edge margin themselves, inside both near zones, 1e-3 from the
# edge (about 1,000 ulps of c per ulp of Xi) and the last double below the edge
EDGE_CASES = [DEFAULT_XI_MIN, 1e-7, 1e-12, 1e-300, SQRT_PI - DEFAULT_EDGE_MARGIN,
              SQRT_PI - 1e-3, SQRT_PI - 1e-9, math.nextafter(SQRT_PI, 0.0)]


def _better_adjacent(c, xi):
    """Whether |c| is the one of the two adjacent doubles around the sign change
    of Xi - |xi| with the smaller |residual| (the upper one on a tie)."""
    c, x = np.abs(c), np.abs(xi)
    r, up, down = (xi_of_c(v) - x for v in (c, np.nextafter(c, np.inf), np.nextafter(c, 0.0)))
    return (((r > 0.0) & (up <= 0.0) & (np.abs(r) < np.abs(up)))
            | ((down > 0.0) & (r <= 0.0) & (np.abs(r) <= np.abs(down))))


@pytest.mark.parametrize("xi", EDGE_CASES)
def test_edge_cases_invert_to_the_better_adjacent_double(xi):
    near = xi < DEFAULT_XI_MIN or xi > SQRT_PI - DEFAULT_EDGE_MARGIN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = c_of_xi(xi)
        assert c_of_xi(-xi) == -c
    assert len(caught) == (2 if near else 0)
    assert isinstance(c, float) and _better_adjacent(c, xi)


@pytest.mark.parametrize("n", [1, 16, 256, 8020])
def test_inversion_is_the_better_adjacent_double_at_any_size(n):
    rng = np.random.default_rng(n)
    x = np.concatenate([EDGE_CASES[:n], rng.uniform(0.0, SQRT_PI, n),
                        10.0 ** rng.uniform(-300.0, 0.0, n)])
    x = rng.permutation(x[x > 0.0][:n]) * rng.choice([-1.0, 1.0], n)
    near = (np.abs(x) < DEFAULT_XI_MIN) | (np.abs(x) > SQRT_PI - DEFAULT_EDGE_MARGIN)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = c_of_xi(x)
    assert len(caught) == int(near.any())
    if near.any():
        assert f"{np.count_nonzero(near)} near-edge frequencies" in str(caught[0].message)
    assert c.shape == x.shape and np.array_equal(np.sign(c), np.sign(x))
    assert np.all(_better_adjacent(c, x))
    bad = x.copy()
    bad[n // 2] = -1e-310  # subnormal: its root exceeds the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(UnsupportedFrequencyError, match="xi=-1e-310 is too close to 0"):
            c_of_xi(bad)


def test_array_inversion_rejects_out_of_band_element():
    with pytest.raises(UnsupportedFrequencyError, match="xi=2.0"):
        c_of_xi(np.array([0.3, 2.0, 0.0]))


def test_array_inversion_checks_every_residual(monkeypatch):
    # a negative tolerance no residual can meet exercises the per-element check
    monkeypatch.setattr(dispersion, "XI_RESIDUAL_TOL", -1.0)
    with pytest.raises(ArithmeticError, match="xi=0.3"):
        c_of_xi(np.array([0.3, 0.5]))


def test_monotone_decreasing_inverse():
    xs = np.linspace(0.05, SQRT_PI - 0.05, 40)
    cs = [c_of_xi(float(x)) for x in xs]
    assert np.all(np.diff(cs) < 0)


def test_table_row_fields():
    t = build_table([-0.6, 0.6])
    assert np.all((0.0 < t.b) & (t.b < 1.0))
    assert np.array_equal(np.sign(t.c), np.sign(t.xi))
    assert np.array_equal(t.lam, t.b - 1.0)
    assert np.all((-1.0 < t.lam) & (t.lam < 0.0))
    assert np.max(np.abs(t.a * t.xi - t.lam)) < 1e-15
    # negative side mirrors evenly
    assert t.lam[0] == t.lam[1] and t.b[0] == t.b[1]
    assert t.c[0] == -t.c[1] and t.a[0] == -t.a[1]


def test_hydrodynamic_limit():
    # lam(xi)/xi^2 -> -1/2; the outer series Xi(c) ~ 1/c - 1/(2c^3) + 3/(4c^5)
    # is verified against the quadrature oracle before being relied on
    for c in (10.0, 50.0):
        series = 1.0 / c - 1.0 / (2.0 * c**3) + 3.0 / (4.0 * c**5)
        assert abs(series - xi_of_c_quadrature(c)) < 1e-5 * abs(series)
    table = build_table([0.01, 0.02, 0.05])
    assert np.max(np.abs(table.lam / table.xi**2 + 0.5)) < 2e-3


def test_decay_rate_saturates_at_band_edge():
    assert build_table([SQRT_PI - 1e-4]).lam[0] < -0.98


def test_transfer_function_identities():
    grid = build_grid(64)
    table = build_table([0.1, 0.4, 0.75, -0.5])
    K = transfer_function(table, grid)
    assert np.max(np.abs(K @ grid.weights - 1.0)) < 1e-8
    flux = K @ (grid.weights * grid.nodes)
    assert np.max(np.abs(flux - 1j * table.a)) < 1e-8


def test_transfer_function_uniform_limit_small_xi():
    # K -> 1 pointwise; the bound |xi| * vmax < 0.05 needs a compact node set
    grid = build_grid(16)
    K = transfer_function(build_table([0.01]), grid)
    assert np.max(np.abs(K - 1.0)) < 0.05


def test_eigenvector_identity_is_algebraic():
    # -(1 + i xi v) K + 1 = lam * K exactly, independent of quadrature
    grid = build_grid(64)
    p = build_table([0.8])
    K = transfer_function(p, grid)[0]
    lhs = -(1.0 + 1j * p.xi[0] * grid.nodes) * K + 1.0
    assert np.max(np.abs(lhs - p.lam[0] * K)) < 1e-14


def test_build_table_and_lookup():
    xi = np.array([-0.6, -0.3, 0.3, 0.6])
    table = build_table(xi)
    assert len(table) == 4
    assert np.all(np.diff(table.xi) > 0)
    assert table.lam[0] == table.lam[3]  # evenness
    # rows are found by position: sorted distinct input holds its own floats in order
    assert table.xi.tobytes() == xi.tobytes()
    assert build_table([0.6, 0.3, -0.6, 0.3, -0.3]).xi.tobytes() == xi.tobytes()


def test_table_transfer_rows_match_points_bitwise():
    grid = build_grid(64)
    xs = np.linspace(-1.6, 1.6, 17)
    table = build_table(xs[xs != 0.0])
    K = transfer_function(table, grid)
    assert K.shape == (len(table), grid.order)
    for row, xi in zip(K, table.xi):
        assert np.array_equal(row, transfer_function(build_table([xi]), grid)[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_table_rejects_frequencies_where_b_rounds_to_one():
    # at xi = 1e-8, b = xi*c rounds to 1.0 and lam to 0
    with pytest.raises(ValueError, match="b = xi"):
        build_table([1e-8, 0.5])


def test_table_decay_rate_limits():
    table = build_table([0.01, 1.7])
    assert table.lam[0] > -0.01
    assert table.lam[1] < -0.9


def test_dispersion_band_decay_rates_lie_in_the_open_unit_interval():
    # the band the dispersion command tabulates, at its widest (no edge margin):
    # lambda runs from -5.0e-5 to -0.99911, so no row leaves (-1, 0)
    xi = np.linspace(0.01, SQRT_PI - 1e-3, 4000)
    lam = build_table(np.concatenate([-xi, xi]), edge_margin=0.0).lam
    assert np.all((lam > -1.0) & (lam < 0.0))


# The layout of the table files cmd_dispersion writes, over any table: a format
# line, sorted "key=value" lines and (xi, c, b, lambda) rows in the CSV; the
# format version, the metadata and one "points" object per row in the JSON.
TABLE_FORMAT = "kinrelax dispersion table format v1"
TABLE_META = {"label": "run", "count": 3, "scale": 0.1}


def table_columns(table):
    """The (xi, c, b, lambda) columns a table CSV holds, as one array."""
    return np.column_stack([table.xi, table.c, table.b, table.lam])


def write_table_csv(table, path, metadata=TABLE_META):
    write_csv(path, [TABLE_FORMAT, *(f"{key}={value}" for key, value in sorted(metadata.items()))],
              ("xi", "c", "b", "lambda"), table_columns(table))


def write_table_json(table, path, metadata=TABLE_META):
    artifacts.write_json(path, {"format_version": 1, "metadata": metadata},
                         {"xi": table.xi, "c": table.c, "b": table.b, "a": table.a,
                          "lambda": table.lam})


def read_table_csv(path):
    """(metadata, rows) of a table CSV: each "# key=value" line split at its
    first '=', and the data rows parsed by np.loadtxt, shape (rows, 4)."""
    with open(path) as fh:
        lines = [line.removesuffix("\n") for line in fh]
    assert lines[0] == f"# {TABLE_FORMAT}"
    header = lines.index("xi,c,b,lambda")
    metadata = dict(line.removeprefix("# ").partition("=")[::2] for line in lines[1:header])
    if header + 1 == len(lines):  # no rows, which np.loadtxt would warn about
        return metadata, np.empty((0, 4))
    return metadata, np.loadtxt(lines[header + 1:], delimiter=",", ndmin=2)


def test_table_csv_roundtrip(tmp_path):
    table = build_table(np.linspace(-0.9, 0.9, 13)[np.abs(np.linspace(-0.9, 0.9, 13)) > 1e-9])
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    _, rows = read_table_csv(path)
    assert rows.tobytes() == table_columns(table).tobytes()


def test_table_json_has_metadata(tmp_path):
    table = build_table([0.2, 0.4])
    path = tmp_path / "table.json"
    write_table_json(table, path, {"xi_residual_tol": XI_RESIDUAL_TOL})
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["metadata"] == {"xi_residual_tol": XI_RESIDUAL_TOL}
    assert [p["xi"] for p in doc["points"]] == table.xi.tolist()


@pytest.mark.parametrize("n", [0, 1, 2 * PASS_ROWS + 3])
def test_table_csv_roundtrip_is_bitwise_at_any_length(tmp_path, n):
    table = build_table(np.linspace(0.05, 1.7, n))
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    _, rows = read_table_csv(path)
    assert rows.shape == (n, 4)
    assert rows.tobytes() == table_columns(table).tobytes()


# The table writers as they were before rows were streamed in chunks: the
# byte reference the streamed writers must reproduce.
def _reference_csv(table, path):
    lines = [f"# {TABLE_FORMAT}"]
    for key in sorted(TABLE_META):
        lines.append(f"# {key}={TABLE_META[key]}")
    lines.append("xi,c,b,lambda")
    for j in range(len(table)):
        lines.append(",".join(f"{v:.17g}" for v in
                              (table.xi[j], table.c[j], table.b[j], table.lam[j])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_json(table, path):
    doc = {
        "format_version": 1,
        "metadata": {k: TABLE_META[k] for k in sorted(TABLE_META)},
        "points": [{"xi": table.xi[j], "c": table.c[j], "b": table.b[j],
                    "a": table.a[j], "lambda": table.lam[j]} for j in range(len(table))],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _assert_writers_match_reference(table, tmp):
    write_table_json(table, tmp / "t.json")
    _reference_json(table, tmp / "ref.json")
    assert (tmp / "t.json").read_bytes() == (tmp / "ref.json").read_bytes()
    write_table_csv(table, tmp / "t.csv")
    _reference_csv(table, tmp / "ref.csv")
    assert (tmp / "t.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
    assert read_table_csv(tmp / "t.csv")[0] == {k: f"{v}" for k, v in TABLE_META.items()}


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                  math.nan, math.inf, -math.inf]
ROW_COUNTS = (st.sampled_from([0, 1, PASS_ROWS - 1, PASS_ROWS, PASS_ROWS + 1])
              | st.integers(0, 40))


@st.composite
def direct_tables(draw):
    """Tables built directly, bypassing build_table: random magnitudes over
    the whole double range, with signed zeros, subnormals, NaN and +-inf."""
    n = draw(ROW_COUNTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (5, 2 * n + 10)  # spare frequencies: up to 8 specials may be NaN or repeat
    cols = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-323, 308, shape)
    for value in draw(st.lists(st.sampled_from(SPECIAL_VALUES) | st.floats(), max_size=8)):
        cols[rng.integers(shape[0]), rng.integers(shape[1])] = value
    xi = np.unique(cols[0][~np.isnan(cols[0])])  # strictly increasing, +-inf allowed
    xi = xi[np.sort(rng.choice(len(xi), n, replace=False))]
    c, b, a, lam = cols[1:, :n]
    return DispersionTable(xi=xi, c=c, b=b, a=a, lam=lam)


SPECIAL_TABLE = DispersionTable(
    xi=np.array([-math.inf, -0.0, 5e-324, 1e308, math.inf]),
    c=np.array([math.nan, 1.0, -5e-324, math.inf, 0.1]),
    b=np.array([0.5, math.nan, -0.0, 1e-300, -math.inf]),
    a=np.array([-math.inf, 0.25, math.nan, -1e308, 2.0]),
    lam=np.array([-1.0, -0.5, math.inf, math.nan, -0.0]))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(direct_tables())
@example(SPECIAL_TABLE)
def test_table_writers_reproduce_the_reference_bytes(tmp_path, table):
    _assert_writers_match_reference(table, tmp_path)


@pytest.mark.parametrize("n", [0, 1, PASS_ROWS - 1, PASS_ROWS, PASS_ROWS + 1, 3000])
def test_built_table_writers_reproduce_the_reference_bytes(tmp_path, n):
    _assert_writers_match_reference(build_table(np.linspace(-1.7, 1.7, 2 * n)[::2]), tmp_path)


def _percent_g_lines(rows):
    """The reference CSV rows: "%.17g" % v for every value, one join per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


_RNG = np.random.default_rng(20261018)
FORMATTER_INPUTS = {
    "bit patterns over all doubles": _RNG.integers(0, 2**64, 40000, dtype=np.uint64,
                                                   endpoint=False).view(np.float64),
    # exact decimal ties at the 17th digit: Python rounds them half-even
    "ties o/4, o odd": (2 * _RNG.integers(2 * 10**15, 45 * 10**14, 20000) + 1) / 4.0,
    # every tie written in exponent form: o 2^-(s+1) for odd o with o 5^s / 2 in
    # [1e16, 1e17), s = 16 - X for X = -8..-5 (2.0**-25, 43 / 2**22, ...)
    "exponent-form ties and neighbours": _with_neighbours(
        [o / 2.0**(s + 1) for s in range(21, 25)
         for o in range(1, 2 * 10**17 // 5**s + 1, 2) if 2 * 10**16 <= o * 5**s < 2 * 10**17]),
    "powers of ten and neighbours": _with_neighbours([10.0**k for k in range(-323, 309)]),
    "fixed/exponent switch and carry points": _with_neighbours(
        [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999999e22]),
    "extremes": np.array([5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    "zeros and non-finite": np.array([0.0, -0.0, math.nan, math.inf, -math.inf]),
}


@pytest.mark.parametrize("name", FORMATTER_INPUTS)
def test_formatter_is_percent_g_byte_for_byte(name):
    values = np.concatenate([FORMATTER_INPUTS[name], -FORMATTER_INPUTS[name]])
    for start in range(0, len(values), CHUNK_VALUES):  # the numpy pass at any length
        chunk = values[start:start + CHUNK_VALUES]
        text = artifacts._format_pass(chunk, np.ones(len(chunk), bool))
        assert text == _percent_g_lines(chunk[:, None]).encode()


# FORMATTER_INPUTS holds the neighbours of 1e16 and 1e-4 too, where json's float
# text switches between its fixed and exponent forms
SHORTEST_INPUTS = {
    **FORMATTER_INPUTS,
    # the gap below a power of two is half the gap above it
    "powers of two and neighbours": _with_neighbours([2.0**k for k in range(-1074, 1024)]),
    "integers": np.concatenate([np.arange(-2000.0, 2001.0),
                                _RNG.integers(-2**62, 2**62, 4000).astype(float)]),
    "short decimals": np.concatenate([np.round(_RNG.uniform(-1e3, 1e3, 2000), k)
                                      for k in range(10)]),
}


@pytest.mark.parametrize("name", SHORTEST_INPUTS)
def test_formatter_shortest_is_json_float_byte_for_byte(name):
    values = np.concatenate([SHORTEST_INPUTS[name], -SHORTEST_INPUTS[name]])
    for start in range(0, len(values), CHUNK_VALUES):
        chunk = values[start:start + CHUNK_VALUES]
        text = artifacts._format_pass(chunk, np.ones(len(chunk), bool), shortest=True)
        assert text == "".join(json.dumps(v) + "\n" for v in chunk.tolist()).encode()


@pytest.mark.parametrize("ncols", [1, 4, 65])
def test_writer_rows_are_exact_across_every_chunk_boundary(tmp_path, ncols):
    rng = np.random.default_rng(ncols)
    for size in (SMALL_VALUES - 1, SMALL_VALUES, CHUNK_VALUES - 1, CHUNK_VALUES, CHUNK_VALUES + 1,
                 3 * CHUNK_VALUES + 5):
        n = -(-size // ncols)  # a 65-column row straddles each boundary
        rows = rng.choice([-1.0, 1.0], (n, ncols)) * 10.0 ** rng.uniform(-323, 308, (n, ncols))
        flat = rows.reshape(-1)  # fallback values on each side of each boundary
        for boundary in range(CHUNK_VALUES, flat.size, CHUNK_VALUES):
            flat[boundary - 2:boundary + 1] = (2.0**-25, math.nan, 4000000000000001 / 4)
        write_csv(tmp_path / "rows.csv", ["head"], ["c"], rows)
        assert (tmp_path / "rows.csv").read_text() == "# head\nc\n" + _percent_g_lines(rows)


def test_formatter_passes_stay_within_the_chunk_bound(monkeypatch):
    # a pass holds about 300 bytes of scratch per value, so one pass over a whole
    # artifact would add megabytes to the peak resident size
    sizes, real = [], artifacts._format_pass
    monkeypatch.setattr(artifacts, "_format_pass", lambda values, *args, **kwargs:
                        sizes.append(len(values)) or real(values, *args, **kwargs))
    rng = np.random.default_rng(3)
    write_csv(os.devnull, [], [], rng.standard_normal((17, 3)))  # properties.csv: one "%"
    assert sizes == []
    for shape in [(3000, 65), (13000, 4)]:
        sizes.clear()
        write_csv(os.devnull, [], [], rng.standard_normal(shape))
        assert sum(sizes) == shape[0] * shape[1] and max(sizes) <= CHUNK_VALUES
    sizes.clear()  # solve-direct at defaults: 256 trajectories of 51 rows share passes
    texts = render_each(rng.standard_normal((256, 51, 4)))
    next(texts)  # formats the first 20 trajectories only
    assert sizes == [20 * 51 * 4]
    assert len(list(texts)) == 255 and max(sizes) <= CHUNK_VALUES and len(sizes) == 13
    for n in (PASS_ROWS, 8020):  # one pass; the 40,100 values of 4,000 samples a side
        sizes.clear()
        artifacts.write_json(os.devnull, {"format_version": 1},
                             {key: rng.standard_normal(n) for key in "abcde"})
        assert sum(sizes) == 5 * n and max(sizes) <= CHUNK_VALUES
        assert all(size % 5 == 0 for size in sizes)  # whole points per pass


def _json_reference(doc, columns):
    """json.dumps of doc with the points object of each row of ``columns``."""
    keys = sorted(columns)
    rows = zip(*(np.asarray(columns[key]).tolist() for key in keys))
    return json.dumps({**doc, "points": [dict(zip(keys, row)) for row in rows]},
                      indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{}, {"zeta": 1}, {"a": [1, 2], "points_b": {"points": []}}])
def test_write_json_adds_points_to_any_doc(tmp_path, doc):
    # no key before "points", a key that sorts after it, and a nested "points"
    points = {"x": np.array([1.0, 2.0])}
    artifacts.write_json(tmp_path / "p.json", doc, points)
    assert (tmp_path / "p.json").read_text() == _json_reference(doc, points)


def test_write_json_refuses_a_doc_that_holds_points(tmp_path):
    with pytest.raises(ValueError, match="points"):
        artifacts.write_json(tmp_path / "p.json", {"points": 3}, {"x": np.array([1.0])})


# keys that JSON escapes (a quote, a backslash, a control character, a non-ASCII
# letter) and one longer than a word, 5 keys as in a dispersion table's points
ESCAPED_KEYS = ['"quoted', "back\\slash", "ctl\x01", "\u00e9t\u00e9", "a_key_longer_than_8_bytes"]


@pytest.mark.parametrize("n", [0, 1, PASS_ROWS - 1, PASS_ROWS, PASS_ROWS + 1, 8020])
def test_json_separators_write_any_keys(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = rng.standard_normal((5, n)) * 10.0 ** rng.uniform(-30, 30, (5, n))
    specials = [math.nan, math.inf, 5e-324, 2.0**-20, -math.inf]  # Python's text
    for start in range(0, n, PASS_ROWS):  # at both ends of each pass
        columns[:, start] = specials
        columns[:, min(start + PASS_ROWS, n) - 1] = specials[::-1]
    points = dict(zip(ESCAPED_KEYS, columns))
    doc = {"format_version": 1, "zeta": "after"}
    artifacts.write_json(tmp_path / "p.json", doc, points)
    assert (tmp_path / "p.json").read_bytes() == _json_reference(doc, points).encode()


_PEAK_RNG = np.random.default_rng(29)
_PEAK_VALUES = _PEAK_RNG.standard_normal(CHUNK_VALUES) * 10.0 ** _PEAK_RNG.uniform(-8, 8, CHUNK_VALUES)
_PEAK_ENDS = np.arange(1, CHUNK_VALUES + 1) % 65 == 0
_PEAK_ROWS = _PEAK_RNG.standard_normal((512, 65))
_PEAK_COLUMNS = {key: _PEAK_RNG.standard_normal(8020) for key in ("xi", "c", "b", "a", "lambda")}


# the peak_rss_mb of a run includes the formatter's scratch: each bound is the
# tracemalloc peak (KB) of the str-writing formatter with a "%" record template
# that came before, plus 10%, so that no pass buys time with more scratch
@pytest.mark.parametrize("call, bound_kb", [
    (lambda: artifacts._format_pass(_PEAK_VALUES, _PEAK_ENDS), 1119 * 1.1),
    (lambda: artifacts._format_pass(_PEAK_VALUES, _PEAK_ENDS, shortest=True), 1119 * 1.1),
    (lambda: write_csv(os.devnull, ["head"], ["c"] * 65, _PEAK_ROWS), 1130 * 1.1),
    (lambda: artifacts.write_json(os.devnull, {"format_version": 1}, _PEAK_COLUMNS), 1374 * 1.1),
], ids=["pass", "shortest pass", "write_csv 512x65", "write_json 8020x5"])
def test_writer_scratch_stays_bounded(call, bound_kb):
    assert tracemalloc_peak_kb(call) <= bound_kb


_ORACLE_GRID = build_grid(64)
_ORACLE_XI = 0.9 * np.arange(113, 129) / 128  # the top 16 modes of the default band
_ORACLE_LIFT = transfer_function(build_table(_ORACLE_XI), _ORACLE_GRID)


# the direct oracle sets the peak_rss_mb of verify-exact: each bound is the
# tracemalloc peak (KB) of one propagate call with six live (modes, N, N) stacks
# and the parity conversion by halves, plus 10%.  Eight stacks and the np.where
# conversion peaked at 4,949, 3,667 and 1,835 KB
@pytest.mark.parametrize("call, bound_kb", [
    (lambda: propagate(_ORACLE_LIFT, _ORACLE_XI, _ORACLE_GRID, output_times(5.0, 0.01, 10),
                       dt=0.01), 3103 * 1.1),
    (lambda: propagate(_ORACLE_LIFT, _ORACLE_XI, _ORACLE_GRID, [0.5, 1.0, 2.0, 5.0]), 3102 * 1.1),
    (lambda: propagate(_ORACLE_LIFT[8:], _ORACLE_XI[8:], _ORACLE_GRID, [0.5, 1.0, 2.0, 5.0],
                       method="rk4"), 1554 * 1.1),
], ids=["solve-direct 16 modes", "compare 16 modes", "rk4 8 modes"])
def test_direct_oracle_scratch_stays_bounded(call, bound_kb):
    assert tracemalloc_peak_kb(call) <= bound_kb


_BAND = make_band_limited_density("gaussian-bump", xi_max=0.9, modes=128)  # the default band
_BAND_TABLE = build_table(_BAND.active_frequencies())


# direct_unit_modes integrates the band diagnostics.BLOCK = 8 modes at a time:
# each bound is its tracemalloc peak (KB), or the solve-direct op's, plus 10%.
# Blocks of 16 peaked at 3,389, 3,247 and 3,448 KB
@pytest.mark.parametrize("call, bound_kb", [
    (lambda: direct_unit_modes(_BAND, _BAND_TABLE, _ORACLE_GRID, output_times(5.0, 0.01, 10),
                               dt=0.01), 1924 * 1.1),
    (lambda: direct_unit_modes(_BAND, _BAND_TABLE, _ORACLE_GRID, [0.5, 1.0, 2.0, 5.0]),
     1698 * 1.1),
], ids=["solve-direct stops", "compare stops"])
def test_direct_unit_modes_scratch_stays_bounded(call, bound_kb):
    assert tracemalloc_peak_kb(call) <= bound_kb


_BAND_STATE = lift_to_kinetic(_BAND, _BAND_TABLE, _ORACLE_GRID)


def test_field_synthesis_scratch_stays_bounded():
    # build-gds's kinetic export at the synthesize size (128 modes, 512 x points,
    # N = 64): each inverse transform runs in place in its packed array.  The
    # bound is the tracemalloc peak (KB) plus 10%; a new array per ifft and per
    # scaling peaked at 1,034 KB
    assert tracemalloc_peak_kb(lambda: to_physical(_BAND_STATE, 512, include_f=True)) <= 777 * 1.1


def test_solve_direct_op_peak_stays_bounded(tmp_path):
    # the op frees the densities once the trajectory rows hold them
    assert tracemalloc_peak_kb(lambda: main(["solve-direct", "--out", str(tmp_path)])) <= 1983 * 1.1


@pytest.mark.parametrize("shape", [(256, 51, 4), (3, 1100, 4), (2, 3, 2000), (4, 0, 4), (1, 1, 1)])
def test_each_array_of_a_stack_gets_its_own_rows(shape):
    stack = np.random.default_rng(4).standard_normal(shape)
    assert list(render_each(stack)) == [_percent_g_lines(rows).encode() for rows in stack]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("xi", [1e-12, 1e-10, 1e-9, 5e-9, 1e-8, 2e-8, 3e-8])
def test_frequencies_whose_rate_is_rounding_noise_are_rejected(xi):
    # lambda = b - 1 within 8 ulps of 0 used to pass at 1e-9 (-1.1e-16 where
    # -xi^2/2 = -5e-19) while 1e-8 and 1e-12 raised
    for sign in (1.0, -1.0):
        with pytest.raises(UnsupportedFrequencyError, match="b = xi"):
            build_table([sign * xi, 0.5])
        with pytest.raises(UnsupportedFrequencyError, match="b = xi"):
            build_table([sign * xi])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_smallest_usable_frequency_has_the_hydrodynamic_rate():
    xi = 1e-7
    assert build_table([xi]).lam[0] == pytest.approx(-0.5 * xi * xi, rel=0.05)

