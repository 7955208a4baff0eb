import math

import numpy as np
import pytest

from kinrelax.dispersion import build_table, dispersion_point, transfer_function
from kinrelax.gds import (KineticStateSpectral, SpectralDensity,
                          evolve_density, kernel_kv, lift_to_kinetic,
                          make_band_limited_density, pide_residual, to_physical)
from kinrelax.quadrature import SQRT_PI, build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def small_setup(profile="gaussian-bump", xi_max=0.8, modes=16, **kw):
    rho0 = make_band_limited_density(profile, xi_max=xi_max, modes=modes, **kw)
    table = build_table(rho0.active_frequencies())
    return rho0, table


# ---------------------------------------------------------------- profiles

def test_band_cap_enforced():
    with pytest.raises(ValueError, match="open"):
        make_band_limited_density("gaussian-bump", xi_max=SQRT_PI, modes=8)
    with pytest.raises(ValueError, match="open"):
        make_band_limited_density("hann-band", xi_max=2.0, modes=8)


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="profile"):
        make_band_limited_density("square-wave", xi_max=0.5, modes=8)


def test_single_mode_structure():
    rho = make_band_limited_density("single-mode", xi_max=1.0, modes=10, xi0=0.5,
                                    amplitude=2.0)
    idx = rho.active_indices()
    assert len(idx) == 2
    assert rho.xi_grid[idx[1]] == pytest.approx(0.5)
    assert rho.xi_grid[idx[0]] == pytest.approx(-0.5)
    assert rho.rho_hat[idx[1]] == 2.0


def test_profiles_are_hermitian_and_gapped_at_zero():
    for name in ("gaussian-bump", "hann-band", "single-mode"):
        rho = make_band_limited_density(name, xi_max=1.2, modes=12)
        center = len(rho.xi_grid) // 2
        assert rho.rho_hat[center] == 0.0
        assert np.max(np.abs(rho.rho_hat - np.conj(rho.rho_hat[::-1]))) == 0.0


def test_truncation_is_exact():
    rho = make_band_limited_density("gaussian-bump", xi_max=1.5, modes=20,
                                    sigma=10.0)  # wide bump, would spill over
    assert np.max(np.abs(rho.xi_grid[rho.active_indices()])) <= 1.5


def test_inverse_transform_of_profile_is_real():
    rho0, table = small_setup()
    snap = to_physical(rho0, 64, table=table)
    assert snap.rho.dtype == np.float64  # _real_checked enforced <1e-10 residue


# ---------------------------------------------------- SpectralDensity checks

def test_spectrum_validation():
    xi = np.linspace(-1.0, 1.0, 5)
    good = np.array([1.0, 2.0, 0.0, 2.0, 1.0], dtype=complex)
    SpectralDensity(xi_grid=xi, rho_hat=good)
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralDensity(xi_grid=xi, rho_hat=np.array([1, 2j, 0, 2j, 1.0]))
    with pytest.raises(ValueError, match="zero-frequency"):
        SpectralDensity(xi_grid=xi, rho_hat=np.array([1, 2, 1, 2, 1.0]))


def test_out_of_band_samples_must_vanish():
    xi = np.linspace(-2.0, 2.0, 9)
    rho = np.zeros(9, dtype=complex)
    rho[0] = rho[-1] = 1.0  # |xi| = 2 > sqrt(pi)
    with pytest.raises(ValueError, match="sqrt"):
        SpectralDensity(xi_grid=xi, rho_hat=rho)
    rho[:] = 0.0
    SpectralDensity(xi_grid=xi, rho_hat=rho)  # all-zero is admissible


# ------------------------------------------------------------------ evolve

def test_evolve_identity_at_t_zero():
    rho0, table = small_setup()
    out = evolve_density(rho0, 0.0, table)
    assert np.array_equal(out.rho_hat, rho0.rho_hat)


def test_single_mode_decay_rate():
    rho0, table = small_setup("single-mode", xi_max=0.8, modes=16, xi0=0.4)
    i = rho0.active_indices()[1]
    lam = table.lam[table.index_of(rho0.xi_grid[i])]
    prev = abs(rho0.rho_hat[i])
    for t in (0.5, 1.0, 2.0):
        out = evolve_density(rho0, t, table)
        mag = abs(out.rho_hat[i])
        assert mag == pytest.approx(math.exp(lam * t) * abs(rho0.rho_hat[i]), rel=1e-13)
        assert mag < prev
        prev = mag


def test_diffusion_limit_amplitude():
    # at xi0 = 0.05 the decay over t=1 matches exp(-xi^2/2) to the series error
    rho0 = make_band_limited_density("single-mode", xi_max=0.8, modes=16, xi0=0.05)
    table = build_table(rho0.active_frequencies())
    i = rho0.active_indices()[1]
    out = evolve_density(rho0, 1.0, table)
    ratio = abs(out.rho_hat[i]) / abs(rho0.rho_hat[i])
    assert abs(ratio / math.exp(-0.05**2 / 2.0) - 1.0) < 2e-3


def test_missing_table_entry_is_named():
    rho0, _ = small_setup()
    sparse = build_table([0.05])
    with pytest.raises(KeyError, match="rebuild"):
        evolve_density(rho0, 1.0, sparse)


def test_backward_evolution_warns():
    rho0, table = small_setup()
    with pytest.warns(RuntimeWarning, match="amplifies"):
        evolve_density(rho0, -0.5, table)


def test_semigroup_property():
    rho0, table = small_setup()
    one_shot = evolve_density(rho0, 1.7, table)
    two_step = evolve_density(evolve_density(rho0, 0.9, table), 0.8, table)
    idx = rho0.active_indices()
    rel = np.abs(one_shot.rho_hat[idx] - two_step.rho_hat[idx]) / np.abs(rho0.rho_hat[idx])
    assert np.max(rel) < 1e-12


def test_superposition_of_disjoint_single_modes_is_exact():
    a = make_band_limited_density("single-mode", xi_max=0.8, modes=16, xi0=0.3)
    b = make_band_limited_density("single-mode", xi_max=0.8, modes=16, xi0=0.6,
                                  amplitude=0.5)
    summed = SpectralDensity(xi_grid=a.xi_grid, rho_hat=a.rho_hat + b.rho_hat)
    table = build_table(summed.active_frequencies())
    t = 1.3
    lhs = evolve_density(summed, t, table).rho_hat
    rhs = evolve_density(a, t, table).rho_hat + evolve_density(b, t, table).rho_hat
    assert np.array_equal(lhs, rhs)


def test_hermitian_symmetry_preserved_exactly():
    rho0, table = small_setup()
    out = evolve_density(rho0, 2.0, table)
    assert np.max(np.abs(out.rho_hat - np.conj(out.rho_hat[::-1]))) == 0.0


def test_decay_envelope():
    rho0, table = small_setup()
    idx = rho0.active_indices()
    lam_max = float(np.max(table.lam[table.index_of(rho0.xi_grid[idx])]))
    norm0 = np.sqrt(np.sum(np.abs(rho0.rho_hat) ** 2))
    for t in (0.5, 2.0, 5.0):
        out = evolve_density(rho0, t, table)
        norm_t = np.sqrt(np.sum(np.abs(out.rho_hat) ** 2))
        assert norm_t <= norm0 * math.exp(lam_max * t) * (1.0 + 1e-12)


# -------------------------------------------------------------------- lift

def test_lift_of_zero_is_zero(grid):
    xi = np.linspace(-1.0, 1.0, 5)
    rho = SpectralDensity(xi_grid=xi, rho_hat=np.zeros(5, dtype=complex))
    state = lift_to_kinetic(rho, build_table([0.5]), grid)
    assert not np.any(state.f_hat)


def test_lift_density_and_flux_consistency(grid):
    rho0, table = small_setup(xi_max=0.75, modes=15)
    state = lift_to_kinetic(rho0, table, grid)
    idx = rho0.active_indices()
    dens = state.density()
    assert np.max(np.abs(dens[idx] - rho0.rho_hat[idx])) < 1e-8
    flux = state.flux()
    expected = 1j * table.a[table.index_of(rho0.xi_grid[idx])] * rho0.rho_hat[idx]
    assert np.max(np.abs(flux[idx] - expected)) < 1e-8


# -------------------------------------------------------------- to_physical

def test_single_mode_gives_pure_cosine(grid):
    rho0, table = small_setup("single-mode", xi_max=0.8, modes=16, xi0=0.4)
    snap = to_physical(rho0, 128, table=table)
    xi0 = 0.4
    L = rho0.domain_length
    expected = (2.0 / L) * np.cos(xi0 * snap.x_grid)
    assert np.max(np.abs(snap.rho - expected)) < 1e-12 * (2.0 / L)


def test_single_mode_flux_profile(grid):
    rho0, table = small_setup("single-mode", xi_max=0.8, modes=16, xi0=0.4)
    a = float(table.a[table.index_of(0.4)])
    snap = to_physical(rho0, 128, table=table)
    L = rho0.domain_length
    expected = -(2.0 * a / L) * np.sin(0.4 * snap.x_grid)
    assert np.max(np.abs(snap.flux - expected)) < 1e-12 * (2.0 * abs(a) / L)


def test_total_mass_is_zero_for_admissible_band(grid):
    rho0, table = small_setup()
    for t in (0.0, 1.0, 5.0):
        rho_t = evolve_density(rho0, t, table)
        snap = to_physical(rho_t, 64, table=table)
        assert abs(snap.total_mass()) < 1e-10


def test_parseval_consistency(grid):
    rho0, table = small_setup()
    state = lift_to_kinetic(rho0, table, grid)
    snap = to_physical(state, 128)
    physical = np.sum(snap.rho**2) * snap.dx
    spectral = np.sum(np.abs(state.density()) ** 2) / rho0.domain_length
    assert abs(physical - spectral) < 1e-9 * spectral


def test_grid_mismatch_and_size_validation(grid):
    rho0, table = small_setup()
    with pytest.raises(ValueError, match="power of two"):
        to_physical(rho0, 48, table=table)
    with pytest.raises(ValueError, match=">="):
        to_physical(rho0, 32, table=table)  # 2*(16+1) = 34 > 32
    with pytest.raises(ValueError, match="table"):
        to_physical(rho0, 64)


def test_kinetic_snapshot_with_molecular_matrix(grid):
    rho0, table = small_setup(xi_max=0.6, modes=12)
    state = lift_to_kinetic(rho0, table, grid)
    snap = to_physical(state, 64, include_f=True)
    assert snap.f.shape == (64, 64)
    # density is the velocity average of the molecular matrix
    rho_from_f = snap.f @ grid.weights
    assert np.max(np.abs(rho_from_f - snap.rho)) < 1e-10


def test_molecular_matrix_matches_per_column_transforms(grid):
    rho0, table = small_setup(xi_max=0.6, modes=12)
    state = lift_to_kinetic(rho0, table, grid)
    x_points, modes = 64, 12
    snap = to_physical(state, x_points, include_f=True)
    # reference: one inverse FFT per velocity column, bins filled one by one
    L = rho0.domain_length
    ref = np.empty((x_points, grid.order))
    for jv in range(grid.order):
        packed = np.zeros(x_points, dtype=complex)
        for j in range(-modes, modes + 1):
            packed[j % x_points] = state.f_hat[j + modes, jv]
        ref[:, jv] = (np.fft.ifft(packed) * (x_points / L)).real
    assert np.array_equal(snap.f, ref)


def test_lift_rows_match_per_mode_transfer_functions(grid):
    rho0, table = small_setup(xi_max=0.75, modes=15)
    state = lift_to_kinetic(rho0, table, grid)
    for i in rho0.active_indices():
        point = dispersion_point(rho0.xi_grid[i])
        assert np.array_equal(state.f_hat[i],
                              transfer_function(point, grid) * rho0.rho_hat[i])
    assert not np.any(np.delete(state.f_hat, rho0.active_indices(), axis=0))


# -------------------------------------------------------------- kernel

def test_kernel_is_real_and_even_at_zero_velocity():
    rho0, table = small_setup()
    y = np.linspace(-20.0, 20.0, 81)  # symmetric offsets
    ker = kernel_kv(0.0, y, table)
    assert ker.dtype == np.float64
    assert np.max(np.abs(ker - ker[::-1])) < 1e-10 * np.max(np.abs(ker))
    # manual complex synthesis confirms the imaginary residue is tiny
    manual = (np.diff(table.xi).min() / (2 * np.pi)) * (
        np.exp(1j * np.outer(y, table.xi)) @ (1.0 / (table.b + 0j)))
    assert np.max(np.abs(manual.imag)) < 1e-10
    assert np.max(np.abs(manual.real - ker)) < 1e-12


def test_kernel_convolution_matches_spectral_path(grid):
    rho0, table = small_setup(xi_max=0.8, modes=16)
    state = lift_to_kinetic(rho0, table, grid)
    snap = to_physical(state, 64, include_f=True)
    rho_x = to_physical(rho0, 64, table=table).rho
    for j in (5, 32, 58):
        ker = kernel_kv(float(grid.nodes[j]), snap.x_grid, table)
        conv = np.fft.ifft(np.fft.fft(ker) * np.fft.fft(rho_x)).real * snap.dx
        scale = max(np.max(np.abs(snap.f[:, j])), 1e-300)
        assert np.max(np.abs(conv - snap.f[:, j])) < 1e-7 * scale


def test_kernel_requires_symmetric_table():
    lopsided = build_table([0.2, 0.4, 0.6])
    with pytest.raises(ValueError, match="sign-symmetric"):
        kernel_kv(0.0, np.linspace(-1, 1, 11), lopsided)


# -------------------------------------------------------------- residual

def test_pide_residual_analytic(grid):
    rho0, table = small_setup(xi_max=0.6, modes=12)
    state = lift_to_kinetic(rho0, table, grid)
    assert pide_residual(state, table) < 1e-10
    # wider band: quadrature drift grows but stays within the contract
    rho_w, table_w = small_setup(xi_max=0.75, modes=15)
    state_w = lift_to_kinetic(rho_w, table_w, grid)
    assert pide_residual(state_w, table_w) < 1e-8


def test_pide_residual_zero_state(grid):
    xi = np.linspace(-1.0, 1.0, 5)
    rho = SpectralDensity(xi_grid=xi, rho_hat=np.zeros(5, dtype=complex))
    state = lift_to_kinetic(rho, build_table([0.5]), grid)
    assert pide_residual(state, build_table([0.5])) == 0.0


def test_pide_residual_detects_perturbation(grid):
    rho0, table = small_setup(xi_max=0.6, modes=12)
    state = lift_to_kinetic(rho0, table, grid)
    rng = np.random.default_rng(8)
    f_hat = state.f_hat.copy()
    idx = rho0.active_indices()  # perturb within the admissible band only
    f_hat[idx] += 1e-3 * (rng.standard_normal((len(idx), grid.order))
                          + 1j * rng.standard_normal((len(idx), grid.order)))
    noisy = KineticStateSpectral(xi_grid=state.xi_grid, f_hat=f_hat,
                                 grid=grid, time=state.time)
    r = pide_residual(noisy, table)
    assert 1e-4 < r < 1e-1  # comparable to the injected noise magnitude


def test_pide_residual_fd_mode_second_order(grid):
    rho0, table = small_setup(xi_max=0.6, modes=12)
    state = lift_to_kinetic(rho0, table, grid)
    r1 = pide_residual(state, table, mode="fd", dt_probe=1e-3)
    r2 = pide_residual(state, table, mode="fd", dt_probe=5e-4)
    assert 3.2 < r1 / r2 < 4.8
    assert pide_residual(state, table, mode="fd", dt_probe=1e-6) < 1e-10
