"""Acceptance suite: one test per release criterion, each at its pinned
tolerance, printing one PASS/FAIL line (run with -s to see them inline).

Frequency bands are calibrated to the default velocity order N = 64: the
1e-8 transfer/eigenpair identities are sampled on |xi| <= 0.75 and the
1e-6 end-to-end comparison uses a band capped at 0.9, the ranges where
the quadrature resolves the transfer function's pole (see README).
"""

import numpy as np
import pytest

from helpers import fit_convergence_order
from kinrelax.collision import (check_mass_conservation,
                                check_negative_semidefinite, check_self_adjoint,
                                collision_matrix, operator_norm_bound_check)
from kinrelax.diagnostics import (compare_gds_direct, continuity_residual,
                                  spectral_continuity_residual)
from kinrelax.direct import ModeOperator
from kinrelax.dispersion import build_table, c_of_xi, transfer_function, xi_of_c
from kinrelax.gds import (evolve_density, lift_to_kinetic,
                          make_band_limited_density, to_physical)
from kinrelax.quadrature import SQRT_PI, build_grid, norm_phi

IDENTITY_BAND = 0.75   # |xi| cap for the 1e-8 identities at N = 64
COMPARE_BAND = 0.9     # band cap for the 1e-6 end-to-end check at N = 64

# Digitized reference-curve samples (c, xi); the plotted values are only
# ~1% accurate, hence the widened 2e-2 tolerance.  The c = 0 row is read
# against the small-c limit sqrt(pi).
REFERENCE_CURVE = [
    (0.0, 1.75263), (0.2, 1.4198), (0.4, 1.17853), (0.6, 0.998537),
    (0.8, 0.860816), (1.0, 0.753057), (1.2, 0.667063), (1.4, 0.597234),
    (1.6, 0.539653), (1.8, 0.491519), (2.0, 0.450792),
]


def report(num, description, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num} failed: {description} ({detail})"


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def test_criterion_1_dispersion_limits():
    err_small = abs(xi_of_c(1e-6) - SQRT_PI)
    tail = xi_of_c(1e4)
    ok = err_small < 1e-5 and tail < 2e-4
    report(1, "dispersion limits at c -> 0+ and c -> inf", ok,
           f"|Xi(1e-6)-sqrt(pi)|={err_small:.2e}, Xi(1e4)={tail:.2e}")


def test_criterion_2_monotone_inversion():
    # one array call each: every element is solved independently, and
    # test_array_inversion_matches_scalar_calls_bitwise covers the scalar path
    xi_samples = np.linspace(1e-6, SQRT_PI - 1e-6, 1002)[1:-1]
    worst = float(np.max(np.abs(xi_of_c(c_of_xi(xi_samples)) - xi_samples)))
    xi_vals = xi_of_c(np.logspace(-4, 4, 1000))
    monotone = bool(np.all(np.diff(xi_vals) < 0))
    ok = worst < 1e-11 and monotone
    report(2, "roundtrip inversion and strict monotonicity", ok,
           f"max |Xi(C(xi))-xi|={worst:.2e} over 1000 samples, decreasing={monotone}")


def test_criterion_3_reference_curve_reproduction():
    worst = 0.0
    for c, xi_plot in REFERENCE_CURVE:
        value = SQRT_PI if c == 0.0 else xi_of_c(c)
        worst = max(worst, abs(value - xi_plot))
    ok = worst < 2e-2
    report(3, "reference dispersion curve, 11 coordinates", ok,
           f"max abs deviation={worst:.2e} (tol 2e-2)")


def test_criterion_4_transfer_function_identities(grid):
    xi_samples = np.linspace(-IDENTITY_BAND, IDENTITY_BAND, 200)
    table = build_table(xi_samples[np.abs(xi_samples) > 1e-3])
    K = transfer_function(table, grid)
    worst_norm = np.max(np.abs(np.sum(grid.weights * K, axis=-1) - 1.0))
    worst_flux = np.max(np.abs(np.sum(grid.weights * grid.nodes * K, axis=-1)
                               - 1j * table.a))
    ok = worst_norm < 1e-8 and worst_flux < 1e-8
    report(4, "transfer-function normalization and flux identities", ok,
           f"norm={worst_norm:.2e}, flux={worst_flux:.2e} on |xi|<={IDENTITY_BAND}")


def test_criterion_5_eigenpair_identity(grid):
    xi_samples = np.concatenate([np.linspace(0.05, IDENTITY_BAND, 15),
                                 -np.linspace(0.05, IDENTITY_BAND, 15)])
    table = build_table(xi_samples)
    K = transfer_function(table, grid)
    op = ModeOperator(xi=table.xi, grid=grid)
    worst_resid = np.max(norm_phi(op.apply(K) - table.lam[:, None] * K, grid))
    mu = op.hydrodynamic_eigenvalue()
    worst_gap = np.max(np.abs(mu - table.lam))
    ok = worst_resid < 1e-8 and worst_gap < 1e-8
    report(5, "eigenpair identity and dense-operator eigenvalue match", ok,
           f"residual={worst_resid:.2e}, eigenvalue gap={worst_gap:.2e}")


def test_criterion_6_end_to_end_closed_form_check(grid):
    rho0 = make_band_limited_density("gaussian-bump", xi_max=COMPARE_BAND,
                                     modes=128, sigma=0.18, center=0.45)
    table = build_table(rho0.active_frequencies())
    rep = compare_gds_direct(rho0, [0.5, 1.0, 2.0, 5.0], table, grid,
                             method="exact-dense", tolerance=1e-6)
    report(6, "closed-form densities vs direct integration (128 modes)",
           rep.passed,
           f"max rel error={rep.max_residual:.2e} at xi={rep.metadata['worst']['xi']}, "
           f"t={rep.metadata['worst']['t']}")


def test_criterion_7_continuity_closure(grid):
    rho0 = make_band_limited_density("gaussian-bump", xi_max=COMPARE_BAND,
                                     modes=128, sigma=0.18, center=0.45)
    table = build_table(rho0.active_frequencies())
    spectral = spectral_continuity_residual(rho0, table, tolerance=1e-12)

    mode = make_band_limited_density("single-mode", xi_max=0.8, modes=16, xi0=0.5)
    mode_table = build_table(mode.active_frequencies())
    dts = (4e-3, 2e-3, 1e-3, 5e-4)
    errors = []
    for dt in dts:
        snaps = []
        for t in (1.0 - dt, 1.0, 1.0 + dt):
            state = lift_to_kinetic(evolve_density(mode, t, mode_table),
                                    mode_table, grid)
            snaps.append(to_physical(state, 128))
        errors.append(continuity_residual(*snaps).max_residual)
    slope = fit_convergence_order(dts, errors)
    ok = spectral.passed and 1.8 <= slope <= 2.2
    report(7, "continuity closure: spectral residual and FD order", ok,
           f"spectral max={spectral.max_residual:.2e}, central-difference "
           f"slope={slope:.3f}")


def test_criterion_8_collision_property_suite(grid):
    # draw i of a (draws, 2, 64) stack is the pair two size-64 draws would take
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((1000, 2, 64))
    states = z[:, 0] + 1j * z[:, 1]
    worst_mass = np.max(check_mass_conservation(states, grid))
    z = rng.standard_normal((200, 2, 64))
    f, g = z[:, 0], z[:, 1]
    worst_adj = np.max(check_self_adjoint(f, g, grid))
    worst_quad = np.max(check_negative_semidefinite(f, grid))
    const_quad = abs(check_negative_semidefinite(2.5 * np.ones(64), grid))
    # equality only for constants: a unit-spread non-constant stays negative
    nonconst = check_negative_semidefinite(grid.nodes, grid)

    ratio = operator_norm_bound_check(states, grid)

    eig = np.linalg.eigvals(collision_matrix(grid))
    near_zero = np.abs(eig) < np.abs(eig + 1.0)
    spectrum_err = max(float(np.max(np.abs(eig[near_zero]))),
                       float(np.max(np.abs(eig[~near_zero] + 1.0))))

    ok = (worst_mass < 1e-12 and worst_adj < 1e-12 and worst_quad <= 1e-12
          and const_quad < 1e-12 and nonconst < -1e-3
          and ratio <= 2.0 + 1e-9
          and int(near_zero.sum()) == 1 and spectrum_err < 1e-10)
    report(8, "collision operator property suite", ok,
           f"mass={worst_mass:.2e}, adj={worst_adj:.2e}, quad={worst_quad:.2e}, "
           f"ratio={ratio:.6f}, spectrum={spectrum_err:.2e}")


def test_criterion_9_hydrodynamic_limit():
    table = build_table([0.01, 0.02, 0.05])
    worst = np.max(np.abs(table.lam / table.xi**2 + 0.5))
    ok = worst < 2e-3
    report(9, "hydrodynamic (diffusion) limit of the decay rate", ok,
           f"max |lam/xi^2 + 1/2|={worst:.2e}")
