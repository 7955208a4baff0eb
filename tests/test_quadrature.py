import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinrelax.quadrature import (SQRT_PI, VelocityGrid, adaptive_phi_integral,
                                 build_grid, gaussian_moment, inner_product_phi, moment,
                                 norm_phi)


@pytest.fixture(scope="module")
def grid64():
    return build_grid(64)


def test_rejects_small_order():
    with pytest.raises(ValueError):
        build_grid(1)
    with pytest.raises(ValueError):
        build_grid(0)


def test_rejects_order_losing_weight_positivity():
    # at 371 every Hermite weight underflows to 0, and 0 / 0 used to warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (371, 400):
            with pytest.raises(ValueError, match="loses weight positivity"):
                build_grid(order)


@pytest.mark.parametrize("order", [2, 8, 64, 128])
def test_weights_sum_to_one(order):
    g = build_grid(order)
    assert abs(g.weights.sum() - 1.0) < 1e-12
    assert np.all(g.weights > 0)


@pytest.mark.parametrize("order", [2, 7, 64])
def test_nodes_increasing_and_antisymmetric(order):
    g = build_grid(order)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.max(np.abs(g.nodes + g.nodes[::-1])) < 1e-12


def test_grid_must_be_exactly_symmetric():
    g = build_grid(7)
    nodes, weights = g.nodes.copy(), g.weights.copy()
    nodes[0] = np.nextafter(nodes[0], 0.0)  # one ulp off its mirror
    weights[1] *= 1.0 + 2.0**-52
    with pytest.raises(ValueError, match="symmetric"):
        VelocityGrid(nodes=nodes, weights=g.weights.copy(), order=7)
    with pytest.raises(ValueError, match="symmetric"):
        VelocityGrid(nodes=g.nodes.copy(), weights=weights, order=7)
    for order in (*range(2, 41), 64, 127, 370):  # hermgauss symmetrises
        build_grid(order)


@pytest.mark.parametrize("order", [2, 4, 64])
def test_second_moment(order):
    g = build_grid(order)
    assert abs(moment(np.ones(order), 2, g) - 0.5) < 1e-10


def test_integrate_constant_and_odd(grid64):
    ones = np.ones(64)
    assert abs(moment(ones, 0, grid64) - 1.0) < 1e-14
    assert abs(moment(grid64.nodes, 0, grid64)) < 1e-12
    assert abs(moment(grid64.nodes**3, 0, grid64)) < 1e-12


def test_v2_moment_against_adaptive_quadrature(grid64):
    oracle = adaptive_phi_integral(lambda v: v * v)
    assert abs(oracle - 0.5) < 1e-12
    assert abs(moment(np.ones(64), 2, grid64) - oracle) < 1e-12


def test_fourth_moment(grid64):
    oracle = adaptive_phi_integral(lambda v: v**4)
    assert abs(oracle - 0.75) < 1e-12
    assert abs(moment(np.ones(64), 4, grid64) - 0.75) < 1e-10


def test_inner_product_examples(grid64):
    ones = np.ones(64)
    v = grid64.nodes
    assert abs(inner_product_phi(ones, ones, grid64) - 1.0) < 1e-14
    assert abs(inner_product_phi(v, v, grid64) - 0.5) < 1e-12
    assert abs(inner_product_phi(v, ones, grid64)) < 1e-12


def test_inner_product_is_bilinear_not_sesquilinear(grid64):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    g = rng.standard_normal(64)
    lhs = inner_product_phi(1j * f, g, grid64)
    assert abs(lhs - 1j * inner_product_phi(f, g, grid64)) < 1e-14


def test_norm_phi(grid64):
    assert abs(norm_phi(np.ones(64), grid64) - 1.0) < 1e-14
    # complex norm uses |.|^2, so it is positive
    assert norm_phi(1j * grid64.nodes, grid64) > 0


def test_length_mismatch_rejected(grid64):
    with pytest.raises(ValueError, match="does not match"):
        inner_product_phi(np.ones(8), np.ones(64), grid64)
    with pytest.raises(ValueError):
        moment(np.ones(65), 2, grid64)


def test_gaussian_moment_formula():
    assert gaussian_moment(0) == 1.0
    assert gaussian_moment(1) == 0.0
    assert gaussian_moment(2) == 0.5
    assert gaussian_moment(4) == 0.75
    assert gaussian_moment(6) == 15 / 8
    with pytest.raises(ValueError):
        gaussian_moment(-2)


@pytest.mark.parametrize("order", [8, 16])
def test_polynomial_exactness(order):
    # exact up to degree 2*order - 1, compared against the analytic moments
    g = build_grid(order)
    rng = np.random.default_rng(order)
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=2 * order)
        vals = sum(c * g.nodes**k for k, c in enumerate(coeffs))
        exact = sum(c * gaussian_moment(k) for k, c in enumerate(coeffs))
        scale = max(1.0, sum(abs(c) * gaussian_moment(k + k % 2)
                             for k, c in enumerate(coeffs)))
        assert abs(moment(vals, 0, g) - exact) < 1e-10 * scale


def test_odd_functions_integrate_to_zero(grid64):
    rng = np.random.default_rng(3)
    for _ in range(10):
        coeffs = rng.uniform(-1.0, 1.0, size=6)
        odd = sum(c * grid64.nodes ** (2 * k + 1) for k, c in enumerate(coeffs))
        assert abs(moment(odd, 0, grid64)) < 1e-12 * max(1.0, np.max(np.abs(odd)))


def test_adaptive_integral_against_closed_forms():
    # E[exp(v)] under the phi weight is exp(1/4)
    assert abs(adaptive_phi_integral(np.exp) - math.exp(0.25)) < 1e-12
    assert abs(adaptive_phi_integral(lambda v: 1.0) - 1.0) < 1e-13
    assert abs(adaptive_phi_integral(np.cos) - math.exp(-0.25)) < 1e-12
    # a zero integral converges relative to the size of the terms
    assert abs(adaptive_phi_integral(lambda v: v * v - 0.5)) < 1e-15


@pytest.mark.parametrize("func, row", [
    (lambda v: np.sign(v - 0.3), 0),
    (lambda v: np.full_like(v, np.nan), 0),
    (lambda v: np.stack([np.exp(v), np.sign(v - 0.3)]), 1),
    (lambda v: np.stack([np.cos(v), np.full_like(v, np.nan)]), 1),
], ids=["jump", "nan", "batch-jump", "batch-nan"])
def test_adaptive_integral_raises_when_unconverged(func, row):
    # a jump off the split point, or nan, never lets two levels agree; in a
    # batch the other row converges, and the message names the failing one
    with pytest.raises(ArithmeticError, match=rf"did not converge \(row {row}:"):
        adaptive_phi_integral(func)


def test_adaptive_integral_handles_sharp_lorentzian():
    # half-width 1e-3 integrand, still matches erfcx-based value
    from scipy.special import erfcx
    c = 1e-3
    got = adaptive_phi_integral(lambda v: c / (c * c + v * v))
    assert abs(got - SQRT_PI * erfcx(c)) < 1e-10


def test_grid_is_immutable(grid64):
    with pytest.raises(ValueError):
        grid64.nodes[0] = 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.lists(st.integers(1, 4), max_size=3),
       st.integers(0, 2**32 - 1))
def test_pairings_over_stacks_match_per_row(order, lead, seed):
    grid = build_grid(order)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((*lead, order)) + 1j * rng.standard_normal((*lead, order))
    g = rng.standard_normal((*lead, order))
    rows_f, rows_g = f.reshape(-1, order), g.reshape(-1, order)
    for stacked, per_row in [
        (inner_product_phi(f, g, grid),
         [inner_product_phi(a, b, grid) for a, b in zip(rows_f, rows_g)]),
        (norm_phi(f, grid), [norm_phi(a, grid) for a in rows_f]),
        (moment(f, 3, grid), [moment(a, 3, grid) for a in rows_f]),
        (moment(g, 0, grid), [moment(b, 0, grid) for b in rows_g]),
    ]:
        assert np.shape(stacked) == tuple(lead)
        assert np.array_equal(np.reshape(stacked, -1), per_row)


def test_pairings_reject_a_wrong_velocity_axis(grid64):
    with pytest.raises(ValueError, match="grid order"):
        norm_phi(np.ones((64, 3)), grid64)
    with pytest.raises(ValueError, match="grid order"):
        inner_product_phi(2.0, np.ones(64), grid64)


def test_adaptive_integral_raises_at_the_first_infinite_sum():
    # inf - inf in the convergence test used to warn twelve times first; an
    # infinite row of a batch stops it the same way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for func, row in [(lambda v: np.where(v > 0.3, np.inf, 1.0), 0),
                          (lambda v: np.stack([np.ones_like(v), np.cos(v),
                                               np.where(v > 0.3, np.inf, 1.0)]), 2)]:
            with pytest.raises(ArithmeticError, match=rf"did not converge \(row {row}:"):
                adaptive_phi_integral(func)


def test_batch_rows_equal_their_own_calls():
    funcs = [np.exp, np.cos, lambda v: v * v - 0.5, lambda v: 1e-3 / (1e-6 + v * v)]
    batched = adaptive_phi_integral(lambda v: np.stack([f(v) for f in funcs]))
    assert batched.shape == (4,)
    assert batched.tolist() == [adaptive_phi_integral(f) for f in funcs]
    # a constant broadcast over the batch axis of a (2, 1) integrand
    one = adaptive_phi_integral(lambda v: 1.0)
    assert adaptive_phi_integral(lambda v: np.ones((2, 1))).tolist() == [one, one]
