import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from kinrelax.dispersion import (XI_RESIDUAL_TOL, DispersionPoint, DispersionTable,
                                 UnsupportedFrequencyError, build_table, c_of_xi,
                                 dispersion_point, transfer_function, xi_of_c,
                                 xi_of_c_quadrature)
from kinrelax.quadrature import SQRT_PI, build_grid


def test_closed_form_validated_against_quadrature():
    # gate for trusting the erfcx evaluation anywhere else
    for c in np.logspace(-4, 4, 25):
        fast = xi_of_c(float(c))
        slow = xi_of_c_quadrature(float(c))
        assert abs(fast - slow) <= 1e-10 * abs(slow), f"c={c}"


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

    monkeypatch.setattr(scipy.special, "erfcx", forbidden)
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", forbidden)
    for c, xi in zip(cs, expected):
        assert abs(xi_of_c_quadrature(float(c)) - xi) <= 1e-10 * xi


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


def test_array_inversion_rejects_out_of_band_element():
    with pytest.raises(UnsupportedFrequencyError, match="xi=2.0"):
        c_of_xi(np.array([0.3, 2.0, 0.0]))


def test_array_inversion_checks_every_residual():
    # a negative tolerance no residual can meet exercises the per-element check
    with pytest.raises(ArithmeticError, match="xi=0.3"):
        c_of_xi(np.array([0.3, 0.5]), residual_tol=-1.0)


def test_monotone_decreasing_inverse():
    xs = np.linspace(0.05, SQRT_PI - 0.05, 40)
    cs = [c_of_xi(float(x)) for x in xs]
    assert np.all(np.diff(cs) < 0)


def test_dispersion_point_fields():
    p = dispersion_point(0.6)
    assert 0.0 < p.b < 1.0
    assert math.copysign(1.0, p.c) == 1.0
    assert p.lam == p.b - 1.0
    assert -1.0 < p.lam < 0.0
    assert abs(p.a * p.xi - p.lam) < 1e-15
    assert p.k == complex(0.0, p.a)
    # negative side mirrors evenly
    q = dispersion_point(-0.6)
    assert q.lam == p.lam
    assert q.b == p.b
    assert q.c == -p.c
    assert q.a == -p.a


def test_point_validation():
    with pytest.raises(ValueError):
        DispersionPoint(xi=0.5, c=3.0, b=1.5, a=1.0, lam=0.5)
    with pytest.raises(ValueError):
        DispersionPoint(xi=0.5, c=-1.0, b=0.5, a=-1.0, lam=-0.5)


def test_hydrodynamic_limit():
    # lam(xi)/xi^2 -> -1/2; the outer series Xi(c) ~ 1/c - 1/(2c^3) + 3/(4c^5)
    # is verified against the quadrature oracle before being relied on
    for c in (10.0, 50.0):
        series = 1.0 / c - 1.0 / (2.0 * c**3) + 3.0 / (4.0 * c**5)
        assert abs(series - xi_of_c_quadrature(c)) < 1e-5 * abs(series)
    for xi in (0.01, 0.02, 0.05):
        p = dispersion_point(xi)
        assert abs(p.lam / xi**2 + 0.5) < 2e-3


def test_decay_rate_saturates_at_band_edge():
    p = dispersion_point(SQRT_PI - 1e-4)
    assert p.lam < -0.98


def test_transfer_function_identities():
    grid = build_grid(64)
    for xi in (0.1, 0.4, 0.75, -0.5):
        p = dispersion_point(xi)
        K = transfer_function(p, grid)
        assert abs(np.sum(grid.weights * K) - 1.0) < 1e-8
        flux = np.sum(grid.weights * grid.nodes * K)
        assert abs(flux - 1j * p.a) < 1e-8


def test_transfer_function_uniform_limit_small_xi():
    # K -> 1 pointwise; the bound |xi| * vmax < 0.05 needs a compact node set
    grid = build_grid(16)
    p = dispersion_point(0.01)
    K = transfer_function(p, grid)
    assert np.max(np.abs(K - 1.0)) < 0.05


def test_eigenvector_identity_is_algebraic():
    # -(1 + i xi v) K + 1 = lam * K exactly, independent of quadrature
    grid = build_grid(64)
    p = dispersion_point(0.8)
    K = transfer_function(p, grid)
    lhs = -(1.0 + 1j * p.xi * grid.nodes) * K + 1.0
    assert np.max(np.abs(lhs - p.lam * K)) < 1e-14


def test_build_table_and_lookup():
    xi = np.array([-0.6, -0.3, 0.3, 0.6])
    table = build_table(xi)
    assert len(table) == 4
    assert np.all(np.diff(table.xi) > 0)
    assert table.lam[0] == table.lam[3]  # evenness
    assert table.xi[table.index_of(0.3)] == 0.3
    with pytest.raises(KeyError, match="0.45"):
        table.index_of([0.45])


def test_index_of_scalar_and_array():
    table = build_table([-0.6, -0.3, 0.3, 0.6])
    j = table.index_of(0.3)
    assert isinstance(j, int) and j == 2
    idx = table.index_of(np.array([0.6, -0.6, 0.3]))
    assert isinstance(idx, np.ndarray)
    assert idx.tolist() == [3, 0, 2]
    assert table.index_of(np.array([[0.3 + 1e-14]])).tolist() == [[2]]
    assert table.index_of(np.array([])).shape == (0,)
    with pytest.raises(KeyError, match="0.45"):
        table.index_of(np.array([0.3, 0.45, 0.7]))


def test_table_transfer_rows_match_points_bitwise():
    grid = build_grid(64)
    xs = np.linspace(-1.6, 1.6, 17)
    table = build_table(xs[xs != 0.0])
    K = transfer_function(table, grid)
    assert K.shape == (len(table), grid.order)
    for xi in table.xi:
        row = K[table.index_of(xi)]
        assert np.array_equal(row, transfer_function(dispersion_point(xi), grid))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_table_rejects_frequencies_where_b_rounds_to_one():
    # as dispersion_point does: at xi = 1e-8, b = xi*c rounds to 1.0 and lam to 0
    with pytest.raises(ValueError, match="b = xi"):
        build_table([1e-8, 0.5])
    with pytest.raises(ValueError, match="b = xi"):
        dispersion_point(1e-8)


def test_table_decay_rate_limits():
    table = build_table([0.01, 1.7])
    assert table.lam[0] > -0.01
    assert table.lam[1] < -0.9


def test_table_csv_roundtrip(tmp_path):
    table = build_table(np.linspace(-0.9, 0.9, 13)[np.abs(np.linspace(-0.9, 0.9, 13)) > 1e-9])
    path = tmp_path / "table.csv"
    table.to_csv(path)
    back = DispersionTable.from_csv(path)
    for name in ("xi", "c", "b", "lam"):
        assert np.array_equal(getattr(table, name), getattr(back, name)), name


def test_table_json_has_metadata(tmp_path):
    import json
    table = build_table([0.2, 0.4])
    path = tmp_path / "table.json"
    table.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert "xi_residual_tol" in doc["metadata"]
    assert len(doc["points"]) == 2
