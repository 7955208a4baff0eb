"""Discrete velocity space for the Gaussian probability weight.

Every velocity integral in the model is taken against the equilibrium
density phi(v) = exp(-v^2)/sqrt(pi).  The grid realizes

    integral g(v) phi(v) dv  ~  sum_j w_j g(v_j)

with Gauss-Hermite nodes, exact for polynomials of degree <= 2*order - 1,
and carries the bilinear pairing <f, g>_phi = sum_j w_j f_j g_j.

Velocity is the last axis: every grid function is an array of shape
(..., order).  A single vector pairs to a scalar and a stack of vectors to
one value per row, so a batch of states needs no Python loop.

``adaptive_phi_integral`` is a deliberately separate exp-sinh
(double-exponential) trapezoid rule over the whole line; it shares nothing
with the Gauss-Hermite path and serves as the cross-check for every value
the grid produces.
"""

import math
from dataclasses import dataclass

import numpy as np

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class VelocityGrid:
    """Gauss-Hermite nodes with weights normalized to the phi measure."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"grid order must be >= 2, got {self.order}")
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise ValueError("nodes/weights length must equal the grid order")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def vmax(self) -> float:
        return float(self.nodes[-1])


def build_grid(order: int) -> VelocityGrid:
    """Build the quadrature grid of the given order.

    Rejects order < 2 and any order large enough that the Hermite weight
    computation underflows (weights must stay finite and positive).
    """
    if order < 2:
        raise ValueError(f"grid order must be >= 2, got {order}")
    with np.errstate(all="ignore"):
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / weights.sum()  # physicists' weights sum to sqrt(pi)
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValueError(
            f"order {order} loses weight positivity in the node computation; "
            "use a smaller grid"
        )
    return VelocityGrid(nodes=nodes, weights=weights, order=order)


def as_grid_array(values, grid: VelocityGrid) -> np.ndarray:
    """Validate that ``values`` is an array whose last axis matches the grid."""
    values = np.asarray(values)
    if values.ndim == 0 or values.shape[-1] != grid.order:
        raise ValueError(
            f"array of shape {values.shape} does not match grid order {grid.order}"
        )
    return values


def inner_product_phi(f, g, grid: VelocityGrid):
    """Bilinear pairing sum_j w_j f_j g_j over the last axis.

    No conjugation is applied: complex inputs (Fourier modes) are paired
    with the plain product, matching the real-valued convention of the
    model.  This is not a sesquilinear inner product.
    """
    f = as_grid_array(f, grid)
    g = as_grid_array(g, grid)
    return np.sum(grid.weights * f * g, axis=-1)


def norm_phi(f, grid: VelocityGrid) -> float:
    """Weighted L2 norm sqrt(sum_j w_j |f_j|^2): a float, or one per row."""
    f = as_grid_array(f, grid)
    return np.sqrt(np.sum(grid.weights * np.abs(f) ** 2, axis=-1))


def moment(f, k: int, grid: VelocityGrid):
    """k-th velocity moment sum_j w_j v_j^k f_j over the last axis."""
    f = as_grid_array(f, grid)
    return np.sum(grid.weights * grid.nodes**k * f, axis=-1)


def integrate_phi(f, grid: VelocityGrid):
    """Discrete integral of f against phi: sum_j w_j f_j."""
    return moment(f, 0, grid)


def gaussian_moment(k: int) -> float:
    """Exact integral of v^k phi(v) dv: zero for odd k, (k-1)!!/2^(k/2) for even k."""
    if k < 0:
        raise ValueError("moment degree must be nonnegative")
    if k % 2 == 1:
        return 0.0
    return math.prod(range(1, k, 2)) / 2.0 ** (k // 2)


def adaptive_phi_integral(func):
    """Integral of func(v)*phi(v) over the real line by the exp-sinh rule.

    Trapezoid sums in t for v = +/-exp(pi/2*sinh t), t in [-5, 3] (Takahasi &
    Mori, 1974), halving the step until two levels agree to 1e-13 of the sum
    of |terms| (the integral when func >= 0).  ``func`` gets one array of new
    nodes per level, minus those where exp(-v^2) underflows; complex values
    are fine.  Raises ArithmeticError at the first non-finite level sum, or
    if the step reaches 2**-13 first.
    """

    def terms(t):  # integrand in t at the nodes t, both half-lines summed
        v = np.exp(0.5 * math.pi * np.sinh(t))
        w = 0.5 * math.pi / SQRT_PI * np.cosh(t) * v * np.exp(-v * v)
        v, w = v[w > 0.0], w[w > 0.0]
        x = np.concatenate([-v, v])
        f = np.broadcast_to(func(x), x.shape)
        return w * (f[: v.size] + f[v.size:])

    h, prev = 0.5, math.nan
    g = terms(np.arange(-5.0, 3.0 + h, h))
    total, size = h * np.sum(g), h * np.sum(np.abs(g))
    while np.isfinite(total) and h > 2.0**-13:  # an inf or nan sum never converges
        h *= 0.5
        g = terms(np.arange(-5.0 + h, 3.0, 2.0 * h))  # the odd multiples of the new step
        prev, total = total, 0.5 * total + h * np.sum(g)
        size = 0.5 * size + h * np.sum(np.abs(g))
        if abs(total - prev) <= 1e-13 * size:
            return total.item()
    raise ArithmeticError(f"exp-sinh sum did not converge (last two levels {prev:.17g}, "
                          f"{total:.17g}); does the integrand jump, or hold an inf or a nan?")
