import numpy as np
import pytest
from scipy import linalg

from kinrelax.diagnostics import (ResidualReport, Tolerances, compare_gds_direct,
                                  continuity_residual, fit_convergence_order,
                                  report_to_json, spectral_continuity_residual)
from kinrelax.direct import ModeOperator, propagate
from kinrelax.dispersion import build_table, transfer_function
from kinrelax.gds import (FieldSnapshot, evolve_density, lift_to_kinetic,
                          make_band_limited_density, to_physical)
from kinrelax.quadrature import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def gds_setup(xi_max=0.75, modes=15, **kw):
    rho0 = make_band_limited_density("gaussian-bump", xi_max=xi_max, modes=modes, **kw)
    table = build_table(rho0.active_frequencies())
    return rho0, table


def test_report_pass_iff_max_below_tolerance():
    ok = ResidualReport("x", np.array([1e-9, 5e-8]), tolerance=1e-7)
    assert ok.passed and ok.max_residual == 5e-8
    bad = ResidualReport("x", np.array([1e-9, 2e-7]), tolerance=1e-7)
    assert not bad.passed
    assert "FAIL" in bad.format_text()


def test_report_json(tmp_path):
    import json
    rep = ResidualReport("demo", np.array([1e-9]), tolerance=1e-7)
    path = tmp_path / "r.json"
    report_to_json([rep], path)
    doc = json.loads(path.read_text())
    assert doc["all_passed"] is True
    assert doc["reports"][0]["name"] == "demo"


def test_tolerances_overrides():
    t = Tolerances.from_dict({"gds_vs_direct": 1e-5})
    assert t.gds_vs_direct == 1e-5
    assert t.eigenpair == 1e-8
    with pytest.raises(ValueError, match="unknown"):
        Tolerances.from_dict({"bogus": 1.0})


def test_continuity_zero_fields():
    x = np.arange(32) * 0.5
    z = np.zeros(32)
    snaps = [FieldSnapshot(x_grid=x, rho=z, flux=z, time=t) for t in (0.0, 0.1, 0.2)]
    rep = continuity_residual(*snaps)
    assert rep.max_residual == 0.0 and rep.passed


def _snapshots_at(rho0, table, grid, t_center, dt, x_points=128):
    out = []
    for t in (t_center - dt, t_center, t_center + dt):
        state = lift_to_kinetic(evolve_density(rho0, t, table), table, grid)
        out.append(to_physical(state, x_points))
    return out


def test_continuity_single_mode_second_order(grid):
    # xi0 = 0.5 keeps the flux/density quadrature drift (~1e-15) far below
    # the O(dt^2) time-difference term the ratio is probing
    rho0 = make_band_limited_density("single-mode", xi_max=0.8, modes=16, xi0=0.5)
    table = build_table(rho0.active_frequencies())
    res = {}
    for dt in (1e-3, 5e-4):
        snaps = _snapshots_at(rho0, table, grid, 1.0, dt)
        rep = continuity_residual(*snaps)
        res[dt] = rep.max_residual
    assert res[1e-3] < 1e-6
    assert 3.0 < res[1e-3] / res[5e-4] < 5.0  # central difference is order 2


def test_continuity_rejects_mismatched_snapshots(grid):
    rho0, table = gds_setup()
    a, b, c = _snapshots_at(rho0, table, grid, 1.0, 1e-3)
    shifted = FieldSnapshot(x_grid=c.x_grid, rho=c.rho, flux=c.flux, time=c.time + 1.0)
    with pytest.raises(ValueError, match="equally spaced"):
        continuity_residual(a, b, shifted)
    small = to_physical(lift_to_kinetic(rho0, table, grid), 64)
    with pytest.raises(ValueError, match="x-grids"):
        continuity_residual(a, b, small)


def test_spectral_continuity_machine_precision(grid):
    rho0, table = gds_setup()
    rep = spectral_continuity_residual(rho0, table)
    assert rep.max_residual < 1e-12
    assert rep.passed


def test_compare_at_t_zero_is_pure_lift_consistency(grid):
    # at t = 0 the only discrepancy left is the quadrature consistency of
    # the lifted initial data, far below the comparison tolerance
    rho0, table = gds_setup(xi_max=0.6, modes=8)
    rep = compare_gds_direct(rho0, [0.0], table, grid)
    assert rep.max_residual < 1e-12


def test_compare_small_band(grid):
    rho0, table = gds_setup(xi_max=0.75, modes=12)
    rep = compare_gds_direct(rho0, [0.5, 2.0], table, grid)
    assert rep.passed
    assert rep.max_residual < 1e-6
    assert rep.metadata["worst"]["value"] == rep.max_residual


def test_compare_rk4_agrees(grid):
    rho0, table = gds_setup(xi_max=0.6, modes=6)
    rep = compare_gds_direct(rho0, [0.5], table, grid, method="rk4")
    assert rep.max_residual < 1e-6


def test_compare_detects_corrupted_rate(grid):
    rho0, table = gds_setup(xi_max=0.6, modes=8)
    rep = compare_gds_direct(rho0, [1.0], table, grid, lambda_offset=1e-3)
    assert not rep.passed
    assert rep.max_residual > 5e-4  # ~ |dlam| * t at t = 1


def test_compare_rejects_empty_spectrum(grid):
    from kinrelax.gds import SpectralDensity
    xi = np.linspace(-1.0, 1.0, 5)
    empty = SpectralDensity(xi_grid=xi, rho_hat=np.zeros(5, dtype=complex))
    with pytest.raises(ValueError, match="active"):
        compare_gds_direct(empty, [1.0], build_table([0.5]), grid)


def test_fit_convergence_order():
    dts = np.array([0.4, 0.2, 0.1, 0.05])
    assert fit_convergence_order(dts, 3.0 * dts**2) == pytest.approx(2.0)
    assert fit_convergence_order(dts, 0.7 * dts**4) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        fit_convergence_order([0.1], [0.2])


def _brute_force_residuals(rho0, table, grid, times, method, rk4_dt=None):
    """Residuals of every active mode integrated on its own, both signs."""
    rows = []
    for i in rho0.active_indices():
        xi, amp = rho0.xi_grid[i], rho0.rho_hat[i]
        j = table.index_of(xi)
        f0 = transfer_function(table, grid)[j] * amp
        if method == "exact-dense":
            dense = ModeOperator(xi=xi, grid=grid).dense()
            direct = np.array([np.sum(grid.weights * (linalg.expm(dense * t) @ f0))
                               for t in times])
        else:
            direct = propagate(f0[None], [xi], grid, times, method="rk4",
                               dt=rk4_dt)[:, 0] @ grid.weights
        rows.append(np.abs(direct - amp * np.exp(table.lam[j] * np.asarray(times)))
                    / abs(amp))
    return np.array(rows)


@pytest.mark.parametrize("method", ["exact-dense", "rk4"])
@pytest.mark.parametrize("profile", ["gaussian-bump", "single-mode"])
def test_half_band_matches_brute_force_both_halves(profile, method):
    # a coarse grid beyond its faithful band makes the residuals large and
    # different from mode to mode, so a mode paired with the wrong partner shows
    grid = build_grid(16)
    rho0 = make_band_limited_density(profile, xi_max=1.2, modes=10)
    table = build_table(rho0.active_frequencies())
    times = [0.5, 2.0, 0.0, 1.0]
    rk4_dt = 0.004 if method == "rk4" else None
    rep = compare_gds_direct(rho0, times, table, grid, method=method, rk4_dt=rk4_dt)
    brute = _brute_force_residuals(rho0, table, grid, times, method, rk4_dt)
    assert rep.residuals.shape == (brute.size,)
    assert np.max(np.abs(rep.residuals - brute.ravel())) < 1e-13


def test_compare_row_order_and_worst_location(grid):
    rho0, table = gds_setup(xi_max=0.6, modes=3)
    times = [2.0, 0.5]
    rep = compare_gds_direct(rho0, times, table, grid)
    xi = rho0.active_frequencies()
    assert list(xi) == sorted(xi) and xi[0] < 0  # grid order, negative modes first
    rows = rep.residuals.reshape(len(xi), len(times))
    brute = _brute_force_residuals(rho0, table, grid, times, "exact-dense")
    assert np.max(np.abs(rows - brute)) < 1e-13
    # +xi and -xi tie exactly; the first maximum in row order is reported
    assert np.array_equal(rows[::-1], rows)
    m, j = np.unravel_index(np.argmax(rows), rows.shape)
    worst = rep.metadata["worst"]
    assert worst == {"xi": float(xi[m]), "t": times[j], "value": float(rows[m, j])}
    assert worst["xi"] < 0
