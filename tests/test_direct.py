import warnings

import numpy as np
import pytest

from kinrelax.direct import (ModeOperator, default_rk4_dt, distance_to_ray, evolve_mode,
                             propagate, relaxation_distance, rk4_stability_limit, step)
from kinrelax.dispersion import dispersion_point, transfer_function
from kinrelax.quadrature import build_grid, inner_product_phi, norm_phi


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def test_apply_matches_dense(grid):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    op = ModeOperator(xi=0.7, grid=grid)
    assert np.max(np.abs(op.dense() @ f - op.apply(f))) < 1e-12


def test_constant_is_stationary_at_zero_frequency(grid):
    op = ModeOperator(xi=0.0, grid=grid)
    f = 2.5 * np.ones(64, dtype=complex)
    assert np.max(np.abs(op.apply(f))) < 1e-14


def test_mean_zero_decays_at_unit_rate(grid):
    # f = v at xi = 0 solves f_t = -f
    f1 = step(grid.nodes.astype(complex), 0.0, grid, 1.0, method="exact-dense")
    expected = grid.nodes * 0.36787944117144233
    assert np.max(np.abs(f1 - expected)) < 1e-9


def test_mode_operator_moves_mass_only_by_flux(grid):
    rng = np.random.default_rng(3)
    for xi in (0.2, 0.9, -1.3):
        op = ModeOperator(xi=xi, grid=grid)
        for _ in range(20):
            f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert op.mass_flux_residual(f) < 1e-12


def test_gds_initial_data_decays_as_predicted(grid):
    xi = 0.5
    p = dispersion_point(xi)
    K = transfer_function(p, grid)
    f1 = step(K, xi, grid, 1.0, method="exact-dense")
    assert np.max(np.abs(f1 - np.exp(p.lam) * K)) < 1e-8


def test_rk4_stability_enforced(grid):
    limit = rk4_stability_limit(1.0, grid)
    with pytest.raises(ValueError, match="stability"):
        step(np.ones(64, dtype=complex), 1.0, grid, 2.0 * limit, method="rk4")
    assert default_rk4_dt(1.0, grid) < limit


def test_unknown_method_rejected(grid):
    with pytest.raises(ValueError, match="method"):
        step(np.ones(64, dtype=complex), 0.5, grid, 0.01, method="euler")


def test_rk4_fourth_order_convergence(grid):
    from kinrelax.diagnostics import fit_convergence_order

    rng = np.random.default_rng(42)
    f0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    xi = 1.0
    ref = evolve_mode(f0, xi, grid, t_final=1.0, dt=1.0, method="exact-dense").states[-1]
    dts = (0.02, 0.01, 0.005)
    errs = []
    for dt in dts:
        out = evolve_mode(f0, xi, grid, t_final=1.0, dt=dt, method="rk4",
                          output_stride=10**9).states[-1]
        errs.append(np.max(np.abs(out - ref)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 16.0 * 0.8 < coarse / fine < 16.0 * 1.2
    assert 3.7 < fit_convergence_order(dts, errs) < 4.3


def test_evolve_mode_records_density(grid):
    f0 = np.ones(64, dtype=complex)
    traj = evolve_mode(f0, 0.4, grid, t_final=0.5, dt=0.01, output_stride=5)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.5)
    assert traj.densities[0] == pytest.approx(1.0)
    assert traj.states.shape[1] == 64


def test_evolve_mode_rejects_misaligned_final_time(grid):
    with pytest.raises(ValueError, match="multiple"):
        evolve_mode(np.ones(64, dtype=complex), 0.4, grid, t_final=0.55, dt=0.1)


def test_mass_flux_identity_along_trajectory(grid):
    # smooth (slow-mode) data so the central time difference resolves d(rho)/dt
    xi = 0.6
    K = transfer_function(dispersion_point(xi), grid)
    traj = evolve_mode(K, xi, grid, t_final=0.2, dt=0.002)
    v = grid.nodes
    ones = np.ones(64)
    dt = traj.times[1] - traj.times[0]
    for n in range(1, len(traj.times) - 1):
        drho = (traj.densities[n + 1] - traj.densities[n - 1]) / (2.0 * dt)
        flux = inner_product_phi(v * traj.states[n], ones, grid)
        assert abs(drho + 1j * xi * flux) < 1e-7


def test_flat_initial_data_is_not_a_pure_exponential(grid):
    # two-point exponential fit fails to reproduce the midpoint
    xi = 1.0
    f0 = np.ones(64, dtype=complex)
    traj = evolve_mode(f0, xi, grid, t_final=1.0, dt=0.5)
    rho0, rho_mid, rho_end = traj.densities
    mu = np.log(rho_end / rho0) / 1.0
    deviation = abs(rho_mid - rho0 * np.exp(mu * 0.5)) / abs(rho0)
    assert deviation > 1e-3


def test_hydrodynamic_eigenpair_matches_dispersion(grid):
    for xi in (0.3, 0.6, 0.75):
        p = dispersion_point(xi)
        mu, u = ModeOperator(xi=xi, grid=grid).hydrodynamic_eigenpair()
        assert abs(mu - p.lam) < 1e-8
        assert abs(inner_product_phi(u, np.ones(64), grid) - 1.0) < 1e-12


def test_relaxation_distance_zero_on_the_ray(grid):
    xi = 0.5
    K = transfer_function(dispersion_point(xi), grid)
    d = relaxation_distance(K, xi, grid, [0.0, 1.0, 5.0])
    assert np.max(d) < 1e-9


def test_relaxation_distance_decreases_for_perturbed_data(grid):
    xi = 1.0
    K = transfer_function(dispersion_point(xi), grid)
    u = grid.nodes / norm_phi(grid.nodes, grid)
    f0 = K + 0.1 * u
    t_grid = np.arange(0.0, 10.5, 1.0)
    d = relaxation_distance(f0, xi, grid, t_grid)
    assert d[-1] < d[0]
    assert np.all(np.diff(d[5:]) < 0)  # monotone decay once transients mix


def test_relaxation_distance_rejects_zero_state(grid):
    with pytest.raises(ValueError, match="zero-norm"):
        relaxation_distance(np.zeros(64), 0.5, grid, [0.0, 1.0])


@pytest.mark.parametrize("method", ["rk4", "exact-dense"])
def test_negative_frequency_is_exact_conjugate(grid, method):
    # the grid is exactly symmetric, so A(-xi) = conj(A(xi)) bitwise
    rng = np.random.default_rng(5)
    f0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    pos = evolve_mode(f0, 0.7, grid, t_final=0.5, dt=0.01, method=method)
    neg = evolve_mode(np.conj(f0), -0.7, grid, t_final=0.5, dt=0.01, method=method)
    assert np.array_equal(neg.densities, np.conj(pos.densities))
    assert np.array_equal(neg.states, np.conj(pos.states))


@pytest.mark.parametrize("method", ["rk4", "exact-dense"])
def test_block_matches_per_mode_stepping(grid, method):
    rng = np.random.default_rng(8)
    xi = np.array([0.05, 0.3, -0.45, 0.8, 1.2])
    f0 = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    times = [0.3, 1.0, 1.7]
    block = propagate(f0, xi, grid, times, method=method, dt=0.004)
    for m in range(len(xi)):
        single = propagate(f0[m:m + 1], xi[m:m + 1], grid, times, method=method,
                           dt=0.004)[:, 0]
        scale = np.max(np.abs(single), axis=1, keepdims=True)
        assert np.max(np.abs(block[:, m] - single) / scale) < 1e-13


@pytest.mark.parametrize("method", ["rk4", "exact-dense"])
def test_unsorted_repeated_and_zero_times(grid, method):
    rng = np.random.default_rng(9)
    xi = np.array([0.2, 0.6])
    f0 = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    ordered = propagate(f0, xi, grid, [0.0, 0.5, 2.0], method=method)
    shuffled = propagate(f0, xi, grid, [2.0, 0.0, 0.5, 2.0, 0.0], method=method)
    assert np.array_equal(shuffled, ordered[[2, 0, 1, 2, 0]])
    assert np.array_equal(ordered[0], f0)


def test_block_step_above_any_mode_stability_limit_rejected(grid):
    xi = np.array([0.1, 1.0])
    dt = 0.5 * (rk4_stability_limit(0.1, grid) + rk4_stability_limit(1.0, grid))
    assert rk4_stability_limit(1.0, grid) < dt < rk4_stability_limit(0.1, grid)
    with pytest.raises(ValueError, match="stability"):
        propagate(np.ones((2, 64)), xi, grid, [1.0], method="rk4", dt=dt)
    propagate(np.ones((1, 64)), xi[:1], grid, [1.0], method="rk4", dt=dt)


def test_default_rk4_step_is_the_smallest_of_the_block(grid):
    # a block steps at its tightest mode's default, so every mode of it
    # matches a per-mode run at that same step
    rng = np.random.default_rng(11)
    xi = np.array([0.1, 0.9])
    f0 = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    block = propagate(f0, xi, grid, [0.5], method="rk4")
    slow = propagate(f0[:1], xi[:1], grid, [0.5], method="rk4",
                     dt=default_rk4_dt(0.9, grid))
    assert np.max(np.abs(block[0, 0] - slow[0, 0])) < 1e-13 * np.max(np.abs(slow))


def test_mode_operator_stack_matches_per_row_operators(grid):
    rng = np.random.default_rng(13)
    xi = np.linspace(-1.7, 1.7, 40)
    f = rng.standard_normal((40, 64)) + 1j * rng.standard_normal((40, 64))
    op = ModeOperator(xi=xi, grid=grid)
    dense, applied = op.dense(), op.apply(f)
    assert dense.shape == (40, 64, 64) and applied.shape == (40, 64)
    w, v = grid.weights, grid.nodes
    for x, d, g, a in zip(xi, dense, f, applied):
        row = ModeOperator(xi=x, grid=grid)
        assert np.array_equal(d, row.dense())
        assert np.array_equal(d, np.outer(np.ones(64), w) - np.diag(1.0 + 1j * x * v))
        ref = row.apply(g)
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.array_equal(rk4_stability_limit(xi, grid),
                          [rk4_stability_limit(x, grid) for x in xi])
    assert np.array_equal(default_rk4_dt(xi, grid), [default_rk4_dt(x, grid) for x in xi])
    assert isinstance(rk4_stability_limit(0.5, grid), float)
    assert isinstance(default_rk4_dt(0.5, grid), float)


def test_hydrodynamic_eigenpair_stack_matches_rows(grid):
    xi = np.array([0.1, 0.45, -0.8, 1.3])
    mu, u = ModeOperator(xi=xi, grid=grid).hydrodynamic_eigenpair()
    assert mu.shape == (4,) and u.shape == (4, 64)
    for x, m, vec in zip(xi, mu, u):
        m_row, u_row = ModeOperator(xi=x, grid=grid).hydrodynamic_eigenpair()
        assert m == m_row
        assert np.max(np.abs(vec - u_row)) < 1e-12 * np.max(np.abs(u_row))


def test_distance_to_ray_is_scale_free_and_zero_at_zero(grid):
    K = transfer_function(dispersion_point(0.5), grid)
    f = K + 0.1 * np.random.default_rng(2).standard_normal(64)
    # |f|^2 of the second and third rows underflows to 0 without rescaling
    d = distance_to_ray(np.array([f, f * 2.0**-600, 1e-300 * f, np.zeros(64)]), K, grid)
    assert 0.0 < d[0] == d[1]
    assert d[2] == pytest.approx(d[0], rel=1e-14)
    assert d[3] == 0.0


@pytest.mark.parametrize("method,dt", [("rk4", None), ("exact-dense", 1e-10)])
def test_uncountable_step_count_is_a_value_error(grid, method, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            propagate(np.ones((1, 64)), [0.5], grid, [1e308], method=method, dt=dt)
