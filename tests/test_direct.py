import math
import warnings

import numpy as np
import pytest
from scipy import linalg

from helpers import fit_convergence_order
from kinrelax.diagnostics import distance_to_ray
from kinrelax import direct, dispersion, quadrature
from kinrelax.direct import (ModeOperator, _parity_generator, _power, default_rk4_dt,
                             from_parity, output_times, propagate, rk4_stability_limit,
                             to_parity)
from kinrelax.dispersion import build_table, transfer_function
from kinrelax.quadrature import build_grid, inner_product_phi, moment, norm_phi


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def nodal_generator(op):
    """The nodal generator of a ModeOperator, (N, N) or (modes, N, N)."""
    return op.grid.weights + op.diag[..., None] * np.eye(op.grid.order)


def transfer(xi, grid):
    """The transfer function K of one frequency, from a one-row table."""
    return transfer_function(build_table([xi]), grid)[0]


def one_step(f, xi, grid, dt, method):
    """One mode state advanced by one step dt."""
    return propagate(f[None], [xi], grid, [dt], method=method, dt=dt)[0, 0]


def trajectory(f0, xi, grid, t_final, dt, method="exact-dense", output_stride=1):
    """Output times of a fixed-step run of one mode and its states there."""
    times = output_times(t_final, dt, output_stride)
    return times, propagate(f0[None], [xi], grid, times, method=method, dt=dt)[:, 0]


def test_apply_matches_dense(grid):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    op = ModeOperator(xi=0.7, grid=grid)
    assert np.max(np.abs(nodal_generator(op) @ f - op.apply(f))) < 1e-12


def test_constant_is_stationary_at_zero_frequency(grid):
    op = ModeOperator(xi=0.0, grid=grid)
    f = 2.5 * np.ones(64, dtype=complex)
    assert np.max(np.abs(op.apply(f))) < 1e-14


def test_mean_zero_decays_at_unit_rate(grid):
    # f = v at xi = 0 solves f_t = -f
    f1 = one_step(grid.nodes.astype(complex), 0.0, grid, 1.0, "exact-dense")
    expected = grid.nodes * 0.36787944117144233
    assert np.max(np.abs(f1 - expected)) < 1e-9


def test_mode_operator_moves_mass_only_by_flux(grid):
    # <A f, 1>_phi = -i xi <v f, 1>_phi
    rng = np.random.default_rng(3)
    for xi in (0.2, 0.9, -1.3):
        op = ModeOperator(xi=xi, grid=grid)
        f = rng.standard_normal((20, 64)) + 1j * rng.standard_normal((20, 64))
        residual = moment(op.apply(f), 0, grid) + 1j * xi * moment(f, 1, grid)
        assert np.max(np.abs(residual)) < 1e-12


def test_gds_initial_data_decays_as_predicted(grid):
    xi = 0.5
    K = transfer(xi, grid)
    f1 = one_step(K, xi, grid, 1.0, "exact-dense")
    assert np.max(np.abs(f1 - np.exp(build_table([xi]).lam[0]) * K)) < 1e-8


def test_rk4_stability_enforced(grid):
    limit = rk4_stability_limit(1.0, grid)
    with pytest.raises(ValueError, match="stability"):
        one_step(np.ones(64, dtype=complex), 1.0, grid, 2.0 * limit, "rk4")
    assert default_rk4_dt(1.0, grid) < limit


def test_unknown_method_rejected(grid):
    with pytest.raises(ValueError, match="method"):
        one_step(np.ones(64, dtype=complex), 0.5, grid, 0.01, "euler")


def test_rk4_fourth_order_convergence(grid):
    rng = np.random.default_rng(42)
    f0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    xi = 1.0
    ref = trajectory(f0, xi, grid, t_final=1.0, dt=1.0, method="exact-dense")[1][-1]
    dts = (0.02, 0.01, 0.005)
    errs = []
    for dt in dts:
        out = trajectory(f0, xi, grid, t_final=1.0, dt=dt, method="rk4",
                         output_stride=10**9)[1][-1]
        errs.append(np.max(np.abs(out - ref)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 16.0 * 0.8 < coarse / fine < 16.0 * 1.2
    assert 3.7 < fit_convergence_order(dts, errs) < 4.3


def test_propagate_records_density_at_output_times(grid):
    f0 = np.ones(64, dtype=complex)
    times, states = trajectory(f0, 0.4, grid, t_final=0.5, dt=0.01, output_stride=5)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.5)
    assert states.shape == (11, 64)
    assert states[0] @ grid.weights == pytest.approx(1.0)


@pytest.mark.parametrize("t_final, dt, message", [
    (1e308, 1e-300, "not finite"),  # int(round(inf)): an OverflowError
    (5.0, 1e-320, "not finite"),
    (1e-10, 0.01, "rounds to no step"),  # recorded t = 0 alone, never t_final
    (0.55, 0.1, "multiple"),
])
def test_output_times_rejects_step_counts_that_are_not_a_positive_number(t_final, dt,
                                                                         message):
    with pytest.raises(ValueError, match=message):
        output_times(t_final, dt)


def test_output_times_are_float_for_every_stride():
    # a stride past int64 made np.arange return an object array
    for stride in (1, 7, 499, 500, 501, 2**63, 10**30):
        times = output_times(5.0, 0.01, stride)
        assert times.dtype == np.float64
        assert times[0] == 0.0 and times[-1] == 5.0 and np.all(np.diff(times) > 0)
    assert output_times(5.0, 0.01, 10**30).tolist() == [0.0, 5.0]
    assert output_times(5.0, 0.01, 500).tolist() == [0.0, 5.0]
    assert output_times(5.0, 0.01, 499).tolist() == [0.0, 4.99, 5.0]


def test_mass_flux_identity_along_trajectory(grid):
    # smooth (slow-mode) data so the central time difference resolves d(rho)/dt
    xi = 0.6
    K = transfer(xi, grid)
    times, states = trajectory(K, xi, grid, t_final=0.2, dt=0.002)
    densities = states @ grid.weights
    v = grid.nodes
    ones = np.ones(64)
    dt = times[1] - times[0]
    for n in range(1, len(times) - 1):
        drho = (densities[n + 1] - densities[n - 1]) / (2.0 * dt)
        flux = inner_product_phi(v * states[n], ones, grid)
        assert abs(drho + 1j * xi * flux) < 1e-7


def test_flat_initial_data_is_not_a_pure_exponential(grid):
    # two-point exponential fit fails to reproduce the midpoint
    xi = 1.0
    f0 = np.ones(64, dtype=complex)
    rho0, rho_mid, rho_end = trajectory(f0, xi, grid, t_final=1.0, dt=0.5)[1] @ grid.weights
    mu = np.log(rho_end / rho0) / 1.0
    deviation = abs(rho_mid - rho0 * np.exp(mu * 0.5)) / abs(rho0)
    assert deviation > 1e-3


def test_hydrodynamic_eigenpair_matches_dispersion(grid):
    table = build_table([0.3, 0.6, 0.75])
    for xi, lam in zip(table.xi, table.lam):
        mu, u = ModeOperator(xi=xi, grid=grid).hydrodynamic_eigenpair()
        assert abs(mu - lam) < 1e-8
        assert abs(inner_product_phi(u, np.ones(64), grid) - 1.0) < 1e-12


def ray_distance_along(f0, xi, grid, times):
    """Distance to the density-determined ray of one mode's propagated states."""
    states = propagate(f0[None], [xi], grid, times)[:, 0]
    return distance_to_ray(states, transfer(xi, grid), grid)


def test_ray_distance_zero_on_the_ray(grid):
    xi = 0.5
    d = ray_distance_along(transfer(xi, grid), xi, grid, [0.0, 1.0, 5.0])
    assert np.max(d) < 1e-9


def test_ray_distance_decreases_for_perturbed_data(grid):
    xi = 1.0
    K = transfer(xi, grid)
    u = grid.nodes / norm_phi(grid.nodes, grid)
    f0 = K + 0.1 * u
    t_grid = np.arange(0.0, 10.5, 1.0)
    d = ray_distance_along(f0, xi, grid, t_grid)
    assert d[-1] < d[0]
    assert np.all(np.diff(d[5:]) < 0)  # monotone decay once transients mix


@pytest.mark.parametrize("method", ["rk4", "exact-dense"])
def test_negative_frequency_is_exact_conjugate(grid, method):
    # the grid is exactly symmetric, so A(-xi) = conj(A(xi)) bitwise
    rng = np.random.default_rng(5)
    f0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    pos = trajectory(f0, 0.7, grid, t_final=0.5, dt=0.01, method=method)[1]
    neg = trajectory(np.conj(f0), -0.7, grid, t_final=0.5, dt=0.01, method=method)[1]
    assert np.array_equal(neg @ grid.weights, np.conj(pos @ grid.weights))
    assert np.array_equal(neg, np.conj(pos))


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
    # a block steps at most at its tightest mode's default, the span halved
    # until it fits, so each mode matches a per-mode run at that same step
    rng = np.random.default_rng(11)
    xi = np.array([0.1, 0.9])
    f0 = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
    block = propagate(f0, xi, grid, [0.5], method="rk4")
    h = 0.5 / 2 ** math.ceil(math.log2(0.5 / default_rk4_dt(0.9, grid)))
    assert h <= default_rk4_dt(0.9, grid) < 2.0 * h
    tight = propagate(f0[1:], xi[1:], grid, [0.5], method="rk4")
    slow = propagate(f0[:1], xi[:1], grid, [0.5], method="rk4", dt=h)
    for got, ref in ((block[0, 1], tight[0, 0]), (block[0, 0], slow[0, 0])):
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))
    # more modes than a block of 16, the tightest last: all take that one step
    xi = np.linspace(0.05, 0.9, 20)
    f0 = rng.standard_normal((20, 64)) + 1j * rng.standard_normal((20, 64))
    block = propagate(f0, xi, grid, [0.5], method="rk4")[0]
    ref = propagate(f0, xi, grid, [0.5], method="rk4", dt=h)[0]
    err = np.max(np.abs(block - ref), axis=-1)
    assert np.all(err < 1e-13 * np.max(np.abs(ref), axis=-1))


@pytest.mark.parametrize("method", ["rk4", "exact-dense"])
def test_no_modes_give_no_states(grid, method):
    # the step bound is a min or max over the modes, which no mode leaves undefined
    states = propagate(np.empty((0, 64)), [], grid, [1.0, 0.5], method=method)
    assert states.shape == (2, 0, 64)


def test_mode_operator_stack_matches_per_row_operators(grid):
    rng = np.random.default_rng(13)
    xi = np.linspace(-1.7, 1.7, 40)
    f = rng.standard_normal((40, 64)) + 1j * rng.standard_normal((40, 64))
    op = ModeOperator(xi=xi, grid=grid)
    dense, applied = nodal_generator(op), op.apply(f)
    assert dense.shape == (40, 64, 64) and applied.shape == (40, 64)
    w, v = grid.weights, grid.nodes
    for x, d, g, a in zip(xi, dense, f, applied):
        row = ModeOperator(xi=x, grid=grid)
        assert np.array_equal(d, nodal_generator(row))
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


def test_hydrodynamic_eigenpair_makes_no_eig_call(grid, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the eigenpair takes eigenvalues only")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    mu, u = ModeOperator(xi=np.array([0.0, 0.3, -1.3]), grid=grid).hydrodynamic_eigenpair()
    assert mu.shape == (3,) and u.shape == (3, 64)
    ModeOperator(xi=0.5, grid=grid).hydrodynamic_eigenpair()


def test_hydrodynamic_eigenvalue_is_the_eig_eigenvalue_bitwise(grid):
    # the frequencies of the dense_eigenvalue_gap_max row: its artifact is pinned
    xi = np.linspace(0.1, 0.75, 8)
    mu_all = np.linalg.eig(_parity_generator(xi, grid))[0]
    ref = mu_all[np.arange(8), np.argmax(mu_all.real, axis=-1)]
    mu, _ = ModeOperator(xi=xi, grid=grid).hydrodynamic_eigenpair()
    assert np.array_equal(mu, ref)


def test_least_damped_eigenvector_without_mass_raises(grid, monkeypatch):
    # a diagonal generator: its top eigenvector is a unit vector, whose nodal form
    # has no mass on a q coordinate (v < 0) and mass w_j on the e coordinate j
    d = -np.linspace(0.2, 1.0, 64)
    d[31] = -0.1  # q of the node pair +-v_32
    R = np.diag(d)
    monkeypatch.setattr(direct, "_parity_generator", lambda xi, grid: R)
    op = ModeOperator(xi=0.5, grid=grid)
    with pytest.raises(ArithmeticError, match="no mass-carrying eigenvector"):
        op.hydrodynamic_eigenpair()  # the mass direction has no part along it
    R[31] += to_parity(np.ones(64), grid).real  # now it has: found, and massless
    with pytest.raises(ArithmeticError, match="no mass-carrying eigenvector"):
        op.hydrodynamic_eigenpair()
    d[31], d[32] = -0.5, -0.1  # e of the same pair: found, and carries mass
    R = np.diag(d)
    mu, u = op.hydrodynamic_eigenpair()
    ref = from_parity(np.eye(64)[32], grid) / grid.weights[32]
    assert mu == -0.1
    assert np.max(np.abs(u - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [2, 7, 64])
def test_real_basis_eigenpair_matches_the_nodal_eigensolve(order):
    # the reference the parity path replaced: a complex eig of the nodal
    # generator, then the same mass-carrying, least-damped selection
    grid = build_grid(order)
    xi = np.array([0.0, 0.3, -0.5, 0.7])
    op = ModeOperator(xi=xi, grid=grid)
    mu_all, vecs = np.linalg.eig(nodal_generator(op))
    vecs = np.swapaxes(vecs, -1, -2)
    mass = vecs @ grid.weights
    carries = np.abs(mass) > 1e-8 * norm_phi(vecs, grid)
    k = np.argmax(np.where(carries, mu_all.real, -np.inf), axis=-1)
    rows = np.arange(len(xi))
    ref_mu, ref_u = mu_all[rows, k], vecs[rows, k] / mass[rows, k, None]
    mu, u = op.hydrodynamic_eigenpair()
    assert mu.dtype == complex and u.dtype == complex and u.shape == (4, order)
    assert np.max(np.abs(mu - ref_mu)) < 1e-13
    assert np.all(np.max(np.abs(u - ref_u), axis=-1) < 1e-12 * np.max(np.abs(ref_u), axis=-1))
    if order == 64:  # the slow mode is real in the grid-faithful band
        assert np.all(mu.imag[np.abs(xi) <= 0.75] == 0.0)


def test_distance_to_ray_is_scale_free_and_zero_at_zero(grid):
    K = transfer(0.5, grid)
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


def _rk4_stage_step(op, f, h):
    """One classical four-stage RK4 step, the update the T4(hA) powers replace."""
    k1 = op.apply(f)
    k2 = op.apply(f + 0.5 * h * k1)
    k3 = op.apply(f + 0.5 * h * k2)
    k4 = op.apply(f + h * k3)
    return f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stepped_reference(f, xi, grid, stops, method, dt=None):
    """States at the sorted stops by one step at a time: RK4 stages, or one
    expm(hA) matvec per step, over propagate's span rule for n and h.  A span
    that is, to 4 ulps of its stop, r times the span the last steps were built
    for repeats those steps r times (r <= N/2 without dt, r = 1 with dt); any
    other span takes the fewest equal steps no longer than dt, or without dt
    halves itself to the smallest default RK4 step of the block."""
    op = ModeOperator(xi=xi, grid=grid)
    bound = float(np.min(default_rk4_dt(xi, grid)))
    most = 1 if dt else grid.order // 2
    out, held = [], None
    for stop, span in zip(stops, np.diff(stops, prepend=0.0)):
        n, h = 0, 0.0
        r = round(span / held) if held and span / held < most + 1 else 0
        if 1 <= r <= most and abs(span - r * held) <= 4.0 * np.spacing(stop):
            n, h = r * n_held, h_held
        elif span > 0.0:
            if dt:
                n = max(1, math.ceil(span / dt - 1e-9))
                h = dt if abs(n * dt - span) <= 1e-9 * span else span / n
            else:
                n = 2 ** max(0, math.ceil(math.log2(span / bound)))
                h = span / n
            held, n_held, h_held = span, n, h
        prop = linalg.expm(nodal_generator(op) * h) if method == "exact-dense" else None
        for _ in range(n):
            f = _rk4_stage_step(op, f, h) if method == "rk4" else (prop @ f[..., None])[..., 0]
        out.append(f)
    return np.array(out)


@pytest.mark.parametrize("method,dt", [("rk4", None), ("rk4", 0.007), ("exact-dense", 0.007)])
def test_propagator_powers_match_step_by_step_reference(grid, method, dt):
    # uneven spans that dt does not divide: every span has its own h and n.
    # Without dt the span 1.8 is 9 spans of 0.2, 2,304 steps of its h, more
    # than the 2,048 of its own halving; 0.375 after 0.5, and 0.5 and 0.75
    # after 1.0, are no whole number of the span held and build their own
    rng = np.random.default_rng(17)
    xi = np.array([0.1, 0.5, 0.9])
    f0 = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    for stops in ((0.3, 0.5, 1.7, 3.5), (0.5, 0.875), (1.0, 1.5, 2.25)):
        stops = np.array(stops)
        got = propagate(f0, xi, grid, stops, method=method, dt=dt)
        ref = _stepped_reference(f0, xi, grid, stops, method, dt)
        scale = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.max(np.abs(got - ref) / scale) < 1e-12, stops


def test_one_rk4_step_is_the_stage_update(grid):
    rng = np.random.default_rng(19)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    h = default_rk4_dt(0.9, grid)
    ref = _rk4_stage_step(ModeOperator(xi=0.9, grid=grid), f, h)
    assert np.max(np.abs(one_step(f, 0.9, grid, h, "rk4") - ref)) < 1e-14 * np.max(np.abs(ref))


def _taylor_builds(monkeypatch, grid, times):
    """The states of 8 modes at ``times`` by each method, and the degrees of the
    Taylor polynomials it built."""
    builds, taylor = [], direct._taylor
    monkeypatch.setattr(direct, "_taylor", lambda X, degree: builds.append(degree)
                        or taylor(X, degree))
    xi = 0.9 * np.arange(1, 9) / 8
    f0 = transfer_function(build_table(xi), grid)
    found = {}
    for method in ("rk4", "exact-dense"):
        builds.clear()
        found[method] = propagate(f0, xi, grid, times, method=method), list(builds)
    return found, lambda t, method: propagate(f0, xi, grid, [t], method=method)[0]


def test_one_taylor_polynomial_per_step_size(grid, monkeypatch):
    # 8 modes to 0.5, 1, 2, 5: RK4 halves the span 0.5 to one h, and the spans
    # 0.5, 1 and 3 repeat its P^1024 once, twice and six times; the exact path
    # keeps one h throughout
    found, _ = _taylor_builds(monkeypatch, grid, [0.5, 1.0, 2.0, 5.0])
    assert [builds for _, builds in found.values()] == [[4], [16]]


def test_rounded_spans_keep_the_step(grid, monkeypatch):
    # 0.1, 0.2, ..., 5.0 as the CLI parses them: the spans are 0.1 only to a few
    # ulps of their stops, and each used to build its own polynomial (32 a method)
    times = np.arange(1, 51) / 10
    found, alone = _taylor_builds(monkeypatch, grid, times)
    assert [builds for _, builds in found.values()] == [[4], [16]]
    states = found["exact-dense"][0]
    for t, state in zip(times[::7], states[::7]):  # the kept steps land on the stops
        assert np.max(np.abs(state - alone(t, "exact-dense"))) <= 1e-13 * np.max(np.abs(state))
    # spans 1e300 and 0.5 after the power of 1e-300: the first ratio is past the
    # largest double, the second a whole number far past N/2, so neither repeats
    # it (and no overflow warning).  A one-time RK4 run steps at its own h, so it
    # differs by RK4's discretisation, 6e-13 here
    for times in ([1e-300, 1e300], [1e-300, 0.5, 3.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found, alone = _taylor_builds(monkeypatch, grid, times)
        for (method, (states, _)), bound in zip(found.items(), (1e-12, 1e-13)):
            for t, state in zip(times, states):
                assert np.max(np.abs(state - alone(t, method))) <= bound * np.max(np.abs(state))


@pytest.mark.parametrize("order", [2, 7, 64])
def test_parity_round_trip_within_one_ulp(order):
    rng = np.random.default_rng(order)
    scale = 10.0 ** rng.uniform(-300, 300, size=(200, 1))
    f = (rng.standard_normal((200, order)) + 1j * rng.standard_normal((200, order))) * scale
    grid = build_grid(order)
    y = to_parity(f, grid)
    assert y.shape == f.shape
    err = np.abs((from_parity(y, grid) - f).view(float)).max(axis=-1)
    assert np.all(err <= np.spacing(np.abs(f).max(axis=-1)))


@pytest.mark.parametrize("order", [2, 7, 64])
@pytest.mark.parametrize("method,dt", [("exact-dense", None), ("exact-dense", 0.01),
                                       ("rk4", None)])
def test_parity_paths_match_the_nodal_generator(order, method, dt):
    # the exact paths against expm(t A) on the complex nodal state; RK4 against
    # its own nodal stage loop, since its discretisation error (about 1e-10 at
    # the default step) is what differs from expm
    grid = build_grid(order)
    rng = np.random.default_rng(order + 1)
    xi = np.array([0.0, 0.4, -1.1, 1.7])
    f0 = rng.standard_normal((4, order)) + 1j * rng.standard_normal((4, order))
    stops = np.array([0.0, 0.3, 1.0])
    got = propagate(f0, xi, grid, stops, method=method, dt=dt)
    if method == "rk4":
        ref = _stepped_reference(f0, xi, grid, stops, method)
    else:
        A = nodal_generator(ModeOperator(xi=xi, grid=grid))
        ref = np.array([(linalg.expm(t * A) @ f0[..., None])[..., 0] for t in stops])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_direct_paths_use_neither_erfcx_nor_hermite_nodes(grid, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct oracle must not use this")

    monkeypatch.setattr(dispersion, "erfcx", forbidden)
    monkeypatch.setattr(quadrature, "hermgauss", forbidden)
    with pytest.raises(AssertionError, match="must not use"):  # the guards are live
        build_table([0.3])
    with pytest.raises(AssertionError, match="must not use"):
        build_grid(8)
    f0 = np.ones((2, 64), dtype=complex)
    for method, dt in (("exact-dense", None), ("exact-dense", 0.1), ("rk4", None)):
        assert np.all(np.isfinite(propagate(f0, [0.3, 0.9], grid, [0.5], method, dt)))


@pytest.mark.parametrize("norm", [0.01, 0.1, 0.75, 0.76, 3.0, 30.0])
def test_exact_propagator_matches_scipy_expm(grid, norm):
    # ||tR||_1 = norm in the block of xi = 1.7: one Taylor polynomial up to 0.75,
    # then one more squaring per doubling (six at 30); columns from unit states
    xi, n = np.array([0.0, 0.4, -1.1, 1.7]), grid.order
    t = norm / np.max(np.abs(_parity_generator(xi, grid)).sum(axis=-2))
    units = np.tile(np.eye(n, dtype=complex), (len(xi), 1))
    got = propagate(units, np.repeat(xi, n), grid, [t])[0].reshape(len(xi), n, n)
    ref = np.array([linalg.expm(t * A) for A in nodal_generator(ModeOperator(xi=xi, grid=grid))])
    assert np.max(np.abs(got.swapaxes(-1, -2) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [2, 7, 64])
def test_exact_path_matches_dense_eigendecomposition(order):
    # the reference the scaling-and-squaring path replaced: one eig of the nodal
    # complex generator serves every time, here unsorted and from 0 to 2000
    grid = build_grid(order)
    rng = np.random.default_rng(order + 2)
    xi = np.array([0.0, 0.4, -1.1, 1.7])
    f0 = rng.standard_normal((4, order)) + 1j * rng.standard_normal((4, order))
    times = np.array([3.0, 0.0, 2000.0, 1e-300, 0.5])
    mu, vecs = np.linalg.eig(nodal_generator(ModeOperator(xi=xi, grid=grid)))
    coeff = np.linalg.solve(vecs, f0[..., None])
    ref = np.array([(vecs @ (np.exp(mu * t)[..., None] * coeff))[..., 0] for t in times])
    got = propagate(f0, xi, grid, times, method="exact-dense")
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_exact_path_past_full_underflow_is_zero(grid):
    # exp(mu t) of the eigendecomposition overflowed to inf and gave nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = propagate(np.ones((2, 64)), [0.3, 0.9], grid, [1e308], method="exact-dense")
    assert np.all(np.isfinite(got)) and not np.any(got)


class _CountedProducts(np.ndarray):
    products = 0

    def __matmul__(self, other):
        _CountedProducts.products += 1
        return super().__matmul__(other)


def test_power_is_matrix_power_and_stops_at_zero():
    rng = np.random.default_rng(23)
    P = rng.standard_normal((3, 9, 9)) / 3.0
    shift = np.roll(np.eye(9), 1, axis=0)  # every square has a zero diagonal
    for n in [*range(1, 40), 64, 100, 255, 256, 1000, 1023]:
        assert np.array_equal(_power(P, n), np.linalg.matrix_power(P, n)), n
        assert np.array_equal(_power(shift, n), np.linalg.matrix_power(shift, n)), n
    decaying = (0.05 * P).view(_CountedProducts)
    _CountedProducts.products = 0
    assert not np.any(_power(decaying, 2**1007 + 1))
    assert _CountedProducts.products < 30  # not 1,008 products


def test_repeated_powers_take_fewer_stacked_products(grid, monkeypatch):
    # stacked products per block on a 16-mode exact block and 8 RK4 modes.  At
    # 0.5, 1, 2, 5 the spans 0.5, 1 and 3 are 1, 2 and 6 matvecs by the power
    # of the first span: new powers for them took 29 products on 8 RK4 modes
    # (a second polynomial and P^4096) and 12 on a 16-mode exact block.  At
    # 0.1, ..., 5.0 every span repeats the first power once; at 0.3, 0.5, 1.7,
    # 3.5 the spans 1.2 and 1.8 repeat the power of 0.2
    for name in ("_taylor", "_power"):
        monkeypatch.setattr(direct, name, lambda P, n, fn=getattr(direct, name):
                            np.asarray(fn(P.view(_CountedProducts), n)))
    for times, exact, rk4 in (([0.5, 1.0, 2.0, 5.0], 9, 13),
                              (np.arange(1, 51) / 10, 7, 10),
                              ([0.3, 0.5, 1.7, 3.5], 17, 23)):
        for method, modes, products in (("rk4", 8, rk4), ("exact-dense", 16, exact)):
            xi = 0.9 * np.arange(1, modes + 1) / modes
            _CountedProducts.products = 0
            propagate(transfer_function(build_table(xi), grid), xi, grid, times, method=method)
            assert _CountedProducts.products == products, (method, times[-1])
