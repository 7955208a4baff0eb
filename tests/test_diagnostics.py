import numpy as np
import pytest
from scipy import linalg

from helpers import fit_convergence_order
from kinrelax import diagnostics
from kinrelax.diagnostics import (ResidualReport, Tolerances, compare_gds_direct,
                                  continuity_residual, direct_unit_modes,
                                  spectral_continuity_residual)
from kinrelax.direct import ModeOperator, output_times, propagate
from kinrelax.dispersion import build_table, transfer_function
from kinrelax.gds import (FieldSnapshot, evolve_density, lift_to_kinetic,
                          make_band_limited_density, to_physical)
from kinrelax.quadrature import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def nodal_generator(op):
    """The nodal generator of a ModeOperator, (N, N) or (modes, N, N)."""
    return op.grid.weights + op.diag[..., None] * np.eye(op.grid.order)


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


def _brute_force_residuals(rho0, table, grid, times, method):
    """Residuals of every active mode integrated on its own, both signs; an RK4
    mode beside the fastest one, which sets the step bound of the whole band."""
    pace = np.max(rho0.active_frequencies())
    rows = []
    for j, i in enumerate(rho0.active_indices()):  # the table holds the active modes
        xi, amp = rho0.xi_grid[i], rho0.rho_hat[i]
        assert table.xi[j] == xi
        f0 = transfer_function(table, grid)[j] * amp
        if method == "exact-dense":
            dense = nodal_generator(ModeOperator(xi=xi, grid=grid))
            direct = np.array([np.sum(grid.weights * (linalg.expm(dense * t) @ f0))
                               for t in times])
        else:
            direct = propagate(np.stack([f0, f0]), [xi, pace], grid, times,
                               method="rk4")[:, 0] @ grid.weights
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
    rep = compare_gds_direct(rho0, times, table, grid, method=method)
    brute = _brute_force_residuals(rho0, table, grid, times, method)
    assert rep.residuals.shape == (brute.size,)
    assert np.max(np.abs(rep.residuals - brute.ravel())) < 1e-13


def test_direct_unit_modes_integrates_positive_modes_in_blocks_of_8(grid, monkeypatch):
    # propagate holds a (modes, N, N) stack for all the modes of one call, so the
    # memory bound is the block size of direct_unit_modes
    calls = []

    def recording(f0, xi, *args, **kw):
        calls.append(np.array(xi))
        return propagate(f0, xi, *args, **kw)

    monkeypatch.setattr(diagnostics, "propagate", recording)
    rho0, table = gds_setup(xi_max=0.9, modes=128)
    direct_unit_modes(rho0, table, grid, [0.5])
    assert [len(xi) for xi in calls] == [8] * 16
    assert np.array_equal(np.concatenate(calls), rho0.xi_grid[rho0.xi_grid > 0])


def test_compare_computes_no_ray_distances(grid, monkeypatch):
    # compare reports densities alone; solve-direct's call still gets the distances
    rho0, table = gds_setup(xi_max=0.6, modes=4)
    times = [0.5, 1.0]
    dens, dist = direct_unit_modes(rho0, table, grid, times)
    assert dist.shape == dens.shape == (2, 8)

    def forbidden(*args, **kwargs):
        raise AssertionError("compare discards the ray distances")

    monkeypatch.setattr(diagnostics, "distance_to_ray", forbidden)
    assert compare_gds_direct(rho0, times, table, grid).passed
    unit, none = direct_unit_modes(rho0, table, grid, times, distances=False)
    assert none is None and np.array_equal(unit, dens)


@pytest.mark.parametrize("times, dt", [(output_times(5.0, 0.01, 10), 0.01),
                                       ([0.5, 1.0, 2.0, 5.0], None)],
                         ids=["solve-direct stops", "compare stops"])
def test_exact_oracle_does_not_depend_on_the_block_size(grid, monkeypatch, times, dt):
    # a block's exact step depends only on the ||R||_1 of its largest |xi|, and at
    # the default band the halves of a 16-mode block square as often as the block
    rho0, table = gds_setup(xi_max=0.9, modes=128)
    runs = []
    for block in (16, 8):
        monkeypatch.setattr(diagnostics, "BLOCK", block)
        runs.append(direct_unit_modes(rho0, table, grid, times, dt=dt))
    (dens16, dist16), (dens8, dist8) = runs
    assert np.array_equal(dens16, dens8) and np.array_equal(dist16, dist8)


@pytest.mark.parametrize("times", [output_times(5.0, 0.01, 10), [0.5, 1.0, 2.0, 5.0]],
                         ids=["solve-direct stops", "compare stops"])
def test_rk4_oracle_moves_with_the_block_size_only_by_rounding(grid, monkeypatch, times):
    # without a dt each block steps at the smallest default dt of its own modes,
    # so a lower 8-mode block takes larger steps than the 16-mode block it was
    # part of.  Measured: densities 5.4e-13 and 9.3e-13 apart relative, distances
    # 8.5e-14 and 1.3e-13; the bound is ten times the larger, five decades inside
    # gds_vs_direct.  With solve-direct's fixed dt the steps are the same: bitwise
    rho0, table = gds_setup(xi_max=0.9, modes=128)
    runs = {}
    for block in (16, 8):
        monkeypatch.setattr(diagnostics, "BLOCK", block)
        for dt in (None, 0.01):
            runs[block, dt] = direct_unit_modes(rho0, table, grid, times, method="rk4", dt=dt)
    (dens16, dist16), (dens8, dist8) = runs[16, None], runs[8, None]
    assert np.max(np.abs(dens16 - dens8) / np.abs(dens16)) < 1e-11
    assert np.max(np.abs(dist16 - dist8)) < 1e-11
    assert all(np.array_equal(a, b) for a, b in zip(runs[16, 0.01], runs[8, 0.01]))


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
