import math
import re

import numpy as np
import pytest

from kinrelax.dispersion import build_table, transfer_function
from kinrelax.gds import (SpectralDensity, evolve_density, lift_to_kinetic,
                          make_band_limited_density, to_physical)
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


def test_inverse_transform_of_profile_is_real(grid):
    rho0, table = small_setup()
    snap = to_physical(lift_to_kinetic(rho0, table, grid), 64)
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
    with pytest.raises(ValueError, match="finite"):
        SpectralDensity(xi_grid=xi, rho_hat=np.array([1, np.nan, 0, np.nan, 1.0]))
    # Hermitian to 1e-12 but one-sided: a table on exactly its active frequencies
    # failed the lookup of the mirror modes in compare_gds_direct
    one_sided = np.zeros(9, dtype=complex)
    one_sided[[1, 7]], one_sided[2] = 1.0, 1e-13
    with pytest.raises(ValueError, match="zero exactly where its mirror is"):
        SpectralDensity(xi_grid=np.linspace(-0.8, 0.8, 9), rho_hat=one_sided)


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
    lam = table.lam[rho0.rows_in(table)[1]]
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


def test_rows_in_are_positions_of_the_same_floats():
    xi = np.arange(-3, 4) * 0.3
    rho0 = SpectralDensity(xi_grid=xi, rho_hat=np.array([0, 1, 1, 0, 1, 1, 0], dtype=complex))
    table = build_table(xi[xi != 0.0])  # more rows than active samples
    rows = rho0.rows_in(table)
    assert rows.tolist() == [1, 2, 3, 4]
    assert table.xi[rows].tobytes() == rho0.active_frequencies().tobytes()
    # exact: a frequency one ulp off has no row; a missing one is named, in or past
    # the table's range
    with pytest.raises(KeyError, match="rebuild"):
        rho0.rows_in(build_table(np.nextafter(rho0.active_frequencies(), 1.0)))
    with pytest.raises(KeyError, match=re.escape(f"xi={float(xi[1])!r};")):
        rho0.rows_in(build_table(xi[4:6]))
    with pytest.raises(KeyError, match=re.escape(f"xi={float(xi[4])!r};")):
        rho0.rows_in(build_table(xi[:3]))
    none = SpectralDensity(xi_grid=xi, rho_hat=np.zeros(7, dtype=complex))
    assert none.rows_in(table).shape == (0,)


def test_lift_of_a_spectrum_that_lost_modes_reads_its_rows(grid):
    # by t = 3000 the default profile's faint modes underflow to exactly 0, so the
    # t = 0 table holds rows the evolved spectrum no longer has
    rho0 = make_band_limited_density("gaussian-bump", xi_max=0.9, modes=128, sigma=0.18,
                                     center=0.45)
    table = build_table(rho0.active_frequencies())
    rho_t = evolve_density(rho0, 3000.0, table)
    assert 0 < len(rho_t.active_indices()) < len(table)
    own = build_table(rho_t.active_frequencies())
    assert (lift_to_kinetic(rho_t, table, grid).f_hat.tobytes()
            == lift_to_kinetic(rho_t, own, grid).f_hat.tobytes())
    with pytest.raises(KeyError, match="rebuild"):
        lift_to_kinetic(rho0, own, grid)


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
    lam_max = float(np.max(table.lam[rho0.rows_in(table)]))
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
    expected = 1j * table.a[rho0.rows_in(table)] * rho0.rho_hat[idx]
    assert np.max(np.abs(flux[idx] - expected)) < 1e-8


# -------------------------------------------------------------- to_physical

def test_single_mode_gives_pure_cosine(grid):
    rho0, table = small_setup("single-mode", xi_max=0.8, modes=16, xi0=0.4)
    snap = to_physical(lift_to_kinetic(rho0, table, grid), 128)
    xi0 = 0.4
    L = 2.0 * math.pi / (rho0.xi_grid[1] - rho0.xi_grid[0])
    expected = (2.0 / L) * np.cos(xi0 * snap.x_grid)
    assert np.max(np.abs(snap.rho - expected)) < 1e-12 * (2.0 / L)


def test_single_mode_flux_profile(grid):
    rho0, table = small_setup("single-mode", xi_max=0.8, modes=16, xi0=0.4)
    a = float(table.a[rho0.rows_in(table)[1]])
    snap = to_physical(lift_to_kinetic(rho0, table, grid), 128)
    L = 2.0 * math.pi / (rho0.xi_grid[1] - rho0.xi_grid[0])
    expected = -(2.0 * a / L) * np.sin(0.4 * snap.x_grid)
    assert np.max(np.abs(snap.flux - expected)) < 1e-12 * (2.0 * abs(a) / L)


def test_total_mass_is_zero_for_admissible_band(grid):
    rho0, table = small_setup()
    for t in (0.0, 1.0, 5.0):
        rho_t = evolve_density(rho0, t, table)
        snap = to_physical(lift_to_kinetic(rho_t, table, grid), 64)
        assert abs(np.sum(snap.rho) * snap.dx) < 1e-10


def test_parseval_consistency(grid):
    rho0, table = small_setup()
    state = lift_to_kinetic(rho0, table, grid)
    snap = to_physical(state, 128)
    physical = np.sum(snap.rho**2) * snap.dx
    L = 2.0 * math.pi / (rho0.xi_grid[1] - rho0.xi_grid[0])
    spectral = np.sum(np.abs(state.density()) ** 2) / L
    assert abs(physical - spectral) < 1e-9 * spectral


def test_grid_mismatch_and_size_validation(grid):
    rho0, table = small_setup()
    state = lift_to_kinetic(rho0, table, grid)
    with pytest.raises(ValueError, match="power of two"):
        to_physical(state, 48)
    with pytest.raises(ValueError, match=">="):
        to_physical(state, 32)  # 2*(16+1) = 34 > 32
    with pytest.raises(TypeError, match="lift_to_kinetic"):
        to_physical(rho0, 64)  # a bare spectrum: fields come from the lifted state


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
    L = 2.0 * math.pi / (rho0.xi_grid[1] - rho0.xi_grid[0])
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
        point = build_table([rho0.xi_grid[i]])
        assert np.array_equal(state.f_hat[i],
                              transfer_function(point, grid)[0] * rho0.rho_hat[i])
    assert not np.any(np.delete(state.f_hat, rho0.active_indices(), axis=0))
