"""Linear relaxation collision operator C f = -f + <f, 1>_phi.

The operator is -(I - P) with P the rank-one projection onto constants,
Pf = <f, 1>_phi * 1.  It annihilates constants, conserves mass exactly at
the discrete level (the weights sum to one), is self-adjoint under the
bilinear pairing, and is negative semi-definite on real-valued inputs.
Kept matrix-free; ``collision_matrix`` exports the dense form for
spectral probes.

Velocity is the last axis: the operator and every check take one vector
(a scalar result) or a stack (..., order) of them (one value per row).
"""

import numpy as np

from .quadrature import VelocityGrid, as_grid_array, inner_product_phi, norm_phi


def apply_collision(f, grid: VelocityGrid) -> np.ndarray:
    """C f = -f + (discrete integral of f against phi)."""
    f = as_grid_array(f, grid)
    return np.sum(grid.weights * f, axis=-1, keepdims=True) - f


def collision_matrix(grid: VelocityGrid) -> np.ndarray:
    """Dense form 1 w^T - I of the operator, for eigenvalue checks."""
    return grid.weights - np.eye(grid.order)


def check_mass_conservation(f, grid: VelocityGrid):
    """|<C f, 1>_phi|; vanishes identically because the weights sum to one."""
    cf = apply_collision(f, grid)
    return np.abs(inner_product_phi(cf, np.ones(grid.order), grid))


def check_self_adjoint(f, g, grid: VelocityGrid):
    """|<C f, g>_phi - <f, C g>_phi| under the bilinear pairing."""
    cf = apply_collision(f, grid)
    cg = apply_collision(g, grid)
    return np.abs(inner_product_phi(cf, g, grid) - inner_product_phi(f, cg, grid))


def check_negative_semidefinite(f, grid: VelocityGrid):
    """<f, C f>_phi for real-valued f; always <= 0, zero only for constants."""
    f = as_grid_array(f, grid)
    if np.any(np.imag(f) != 0.0):
        raise ValueError("negative semidefiniteness applies to real-valued f only")
    return inner_product_phi(f.real, apply_collision(f.real, grid), grid)


def operator_norm_bound_check(f, grid: VelocityGrid) -> float:
    """Max of ||C f||_phi / ||f||_phi over the given nonzero states.

    Bounded by 2; the projection structure actually keeps it at 1.
    """
    return float(np.max(norm_phi(apply_collision(f, grid), grid) / norm_phi(f, grid)))
