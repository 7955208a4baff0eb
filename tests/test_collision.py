import numpy as np
import pytest

from kinrelax.collision import (apply_collision, check_mass_conservation,
                                check_negative_semidefinite, check_self_adjoint,
                                collision_matrix, operator_norm_bound_check)
from kinrelax.quadrature import build_grid, inner_product_phi, norm_phi


@pytest.fixture(scope="module")
def grid():
    return build_grid(64)


def test_constants_are_annihilated(grid):
    for c in (1.0, -3.5, 2.0 + 1.0j):
        f = c * np.ones(grid.order)
        assert np.max(np.abs(apply_collision(f, grid))) < 1e-14 * max(1.0, abs(c))


def test_odd_function_maps_to_negative(grid):
    v = grid.nodes
    out = apply_collision(v, grid)
    assert np.max(np.abs(out + v)) < 1e-14


def test_v_squared_shifted_by_half(grid):
    v2 = grid.nodes**2
    out = apply_collision(v2, grid)
    assert np.max(np.abs(out - (-v2 + 0.5))) < 1e-12


@pytest.mark.parametrize("make", [
    lambda g: g.nodes**3,
    lambda g: np.exp(g.nodes.clip(-20, 20) / 4.0),
])
def test_mass_conservation_named_inputs(grid, make):
    assert check_mass_conservation(make(grid), grid) < 1e-12


def test_mass_conservation_random(grid):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
        worst = max(worst, check_mass_conservation(f, grid))
    assert worst < 1e-12


def test_self_adjoint_examples(grid):
    v = grid.nodes
    assert check_self_adjoint(v, v**2, grid) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = rng.standard_normal(grid.order)
        g = rng.standard_normal(grid.order)
        assert check_self_adjoint(f, g, grid) < 1e-12


def test_negative_semidefinite(grid):
    # constant input sits in the kernel
    assert abs(check_negative_semidefinite(4.0 * np.ones(grid.order), grid)) < 1e-14
    # <v, Cv> = -<v, v> = -1/2
    assert abs(check_negative_semidefinite(grid.nodes, grid) + 0.5) < 1e-10
    rng = np.random.default_rng(17)
    for _ in range(200):
        f = rng.standard_normal(grid.order)
        q = check_negative_semidefinite(f, grid)
        assert q <= 1e-12
        spread = float(np.max(f) - np.min(f))
        if spread > 1e-10:  # equality only for constants
            assert q < -1e-8 * spread**2


def test_negative_semidefinite_rejects_complex(grid):
    with pytest.raises(ValueError, match="real-valued"):
        check_negative_semidefinite(1j * grid.nodes, grid)


def test_operator_norm_bound(grid):
    ratio = operator_norm_bound_check(grid, samples=1000, seed=0)
    assert ratio <= 2.0 + 1e-9
    # projection structure keeps the ratio at 1 for mean-zero inputs
    out = apply_collision(grid.nodes, grid)
    assert abs(norm_phi(out, grid) / norm_phi(grid.nodes, grid) - 1.0) < 1e-12
    # kernel input has ratio 0
    assert norm_phi(apply_collision(np.ones(grid.order), grid), grid) < 1e-14


def test_idempotent_complement(grid):
    rng = np.random.default_rng(23)
    for _ in range(50):
        f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
        cf = apply_collision(f, grid)
        ccf = apply_collision(cf, grid)
        assert np.max(np.abs(ccf + cf)) < 1e-12 * max(1.0, np.max(np.abs(f)))


def test_matrix_free_matches_dense(grid):
    rng = np.random.default_rng(29)
    f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
    dense = collision_matrix(grid)
    assert np.max(np.abs(dense @ f - apply_collision(f, grid))) < 1e-13


def test_discrete_spectrum(grid):
    eig = np.linalg.eigvals(collision_matrix(grid))
    near_zero = np.abs(eig) < np.abs(eig + 1.0)
    assert int(near_zero.sum()) == 1
    assert np.max(np.abs(eig[near_zero])) < 1e-10
    assert np.max(np.abs(eig[~near_zero] + 1.0)) < 1e-10


def test_mass_conservation_uses_bilinear_pairing(grid):
    # complex input: <Cf, 1> must vanish with the plain product
    f = grid.nodes + 1j * grid.nodes**2
    cf = apply_collision(f, grid)
    assert abs(inner_product_phi(cf, np.ones(grid.order), grid)) < 1e-12


def test_stack_matches_per_row_calls_bitwise(grid):
    rng = np.random.default_rng(31)
    z = rng.standard_normal((300, 3, grid.order))
    f, g, fc = z[:, 0], z[:, 1], z[:, 0] + 1j * z[:, 2]
    cases = [
        (apply_collision(fc, grid), [apply_collision(r, grid) for r in fc]),
        (check_mass_conservation(fc, grid), [check_mass_conservation(r, grid) for r in fc]),
        (check_self_adjoint(f, g, grid),
         [check_self_adjoint(a, b, grid) for a, b in zip(f, g)]),
        (check_negative_semidefinite(f, grid),
         [check_negative_semidefinite(r, grid) for r in f]),
    ]
    for stacked, rows in cases:
        assert stacked.shape == np.shape(rows)
        assert np.array_equal(stacked, rows)
    # a leading stack shape of any rank is fine; velocity stays the last axis
    assert check_mass_conservation(fc.reshape(3, 100, -1), grid).shape == (3, 100)
    assert isinstance(check_negative_semidefinite(f[0], grid), float)


def test_stack_rejects_a_wrong_velocity_axis(grid):
    with pytest.raises(ValueError, match="grid order"):
        apply_collision(np.ones((grid.order, 3)), grid)
    with pytest.raises(ValueError, match="grid order"):
        check_mass_conservation(1.0, grid)


def test_operator_norm_bound_matches_per_draw_reference(grid):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        f = rng.standard_normal(grid.order) + 1j * rng.standard_normal(grid.order)
        worst = max(worst, norm_phi(apply_collision(f, grid), grid) / norm_phi(f, grid))
    assert operator_norm_bound_check(grid, samples=300, seed=7) == worst
