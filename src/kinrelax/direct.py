"""Direct mode-by-mode integration of the kinetic equation.

After a Fourier transform in x, the equation decouples into dense linear
ODEs f_t = A_xi f on the velocity grid, one per frequency, with

    A_xi f = -(1 + i xi v) f + <f, 1>_phi.

On the exactly symmetric grid, e_j = f(v_j) + f(-v_j) at each node v_j >= 0 and
q_j = i (f(v_j) - f(-v_j)) at its mirror make A_xi the real matrix
R = [[-I + 2 1 w_h^T, -xi V_h], [xi V_h, -I]] over the half grid v_h (a centre
node v = 0 has e = 2 f(0), no q, and coefficient 1, not 2).  This is exact by
grid symmetry, not by dispersion: the matrix exponential, by scaling and
squaring (Moler & Van Loan, 2003, who also call eigenvectors "dubious" for a
nonnormal R) of a degree-16 Taylor polynomial, RK4 (the degree-4 one) and the
hydrodynamic eigenvalue (one real eigvals of R) run in real arithmetic as the
derivation-free oracles the package is validated against.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import VelocityGrid, as_grid_array


@dataclass(frozen=True)
class ModeOperator:
    """The generator A_xi, matrix-free.

    A float xi acts on states of shape (N,), an array of frequencies (modes,)
    row by row on (modes, N).  The diagonal -(1 + i xi v) is formed once.
    """

    xi: float | np.ndarray
    grid: VelocityGrid
    diag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "diag",
                           -(1.0 + 1j * np.multiply.outer(self.xi, self.grid.nodes)))

    def apply(self, f) -> np.ndarray:
        f = as_grid_array(f, self.grid)
        return self.diag * f + (f @ self.grid.weights)[..., None]

    def hydrodynamic_eigenvalue(self):
        """The least-damped eigenvalue, one per row for an array xi.

        One real eigvals of the parity generator R, and of its eigenvalues the
        one with the largest real part, LAPACK's first on a tie (of a conjugate
        pair out of the grid-faithful band, the one with positive imaginary part);
        the spurious real one just above -1 is always more damped.  Its eigenvector
        carries mass: at xi = 0 it is the constant, and for xi != 0 a massless one of
        the distinct diagonal -(1 + i xi v) plus 1 w^T would be some e_j, of mass w_j > 0.
        """
        mu = np.linalg.eigvals(_parity_generator(self.xi, self.grid))
        k = np.argmax(mu.real, axis=-1)
        return mu[(*np.indices(k.shape, sparse=True), k)].astype(complex)  # eigvals may be real


def rk4_stability_limit(xi, grid: VelocityGrid):
    """Largest stable RK4 step, 2.8 / max_j |1 + i xi v_j|, per frequency."""
    return 2.8 / np.max(np.abs(ModeOperator(xi=xi, grid=grid).diag), axis=-1)


def default_rk4_dt(xi, grid: VelocityGrid):
    """Conservative RK4 step bound 0.01 / (1 + |xi| vmax), per frequency."""
    return 0.01 / (1.0 + np.abs(xi) * grid.vmax)


# Largest ||hR||_1 of a one-step propagator: there the remainder of the degree-16
# Taylor series of exp(hR), at most THETA^17/17! e^(2 THETA) = 9.5e-17 relative,
# lies below 2^-53
THETA = 0.75
_TAYLOR = [1.0 / math.factorial(k) for k in range(17)]


def propagate(f0, xi, grid: VelocityGrid, times, method: str = "exact-dense",
              dt: float | None = None) -> np.ndarray:
    """States of modes f0 (modes, N) at xi (modes,), shape (len(times), modes, N).

    The modes given advance as one block, so a caller passing more of them holds
    a larger (modes, N, N) stack of propagators and powers, in one pass through
    the sorted distinct times (``times`` may be unsorted or repeated) in parity
    coordinates, where A_xi is R (``_parity_generator``).  A method is a step
    bound and a Taylor degree under one span rule.  A span between outputs that
    is a whole number r of the span of the power the block holds, to 4 ulps of
    its stop (spans are rounded differences of stops), is r matvecs by that
    power, steps the block already took: r <= N/2 without dt, since a stacked
    product costs N/2 stacked matvecs (spans 0.5, 0.5, 1, 3: P^8, then 1, 2 and
    6 matvecs by it), and r = 1 with dt.  Any other span builds its own power
    P(h)^n, P the Taylor polynomial of exp(hR), rebuilt only when h changes: the
    fewest equal steps no longer than dt ending on its output time (one step
    without dt; a step within 1e-9 of dt is dt), halved the fewest times s >= 0
    that bring h within the bound.  'rk4' is degree 4, one classical RK4 step,
    bounded by dt or else the smallest ``default_rk4_dt`` of the modes, rejected
    above the stability bound of any of them.  'exact-dense', the high-trust
    path, scales and squares: degree 16, bounded by ||hR||_1 <= THETA, where the
    series remainder lies below double precision.  A step count that is not
    finite (times / dt overflows) raises ValueError.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    f0 = np.asarray(f0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if xi.ndim != 1 or f0.shape != (len(xi), grid.order):
        raise ValueError(f"states of shape {f0.shape} do not match {len(xi)} modes "
                         f"on grid order {grid.order}")
    if dt is not None and not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ValueError("times must be a 1D array of finite nonnegative instants")
    if method not in ("rk4", "exact-dense"):
        raise ValueError(f"unknown method {method!r}; use 'rk4' or 'exact-dense'")
    if not len(xi):  # no modes: no step bound, nothing to advance
        return np.empty((len(times),) + f0.shape, dtype=complex)
    stops, order = np.unique(times, return_inverse=True)
    R, h = _parity_generator(xi, grid), dt
    if method == "rk4":
        h = h or float(np.min(default_rk4_dt(xi, grid)))
        limit = float(np.min(rk4_stability_limit(xi, grid)))
        if h > limit:
            raise ValueError(f"dt={h:g} exceeds the RK4 stability bound {limit:g}")
        degree, bound = 4, h
    else:
        degree, bound = 16, THETA / float(np.max(np.abs(R).sum(axis=-2)))
    if h is not None and not math.isfinite(float(np.max(stops, initial=0.0)) / h):
        step = f"dt={h:g}" if dt else f"the RK4 default step {h:g}"
        raise ValueError(f"the step count {np.max(stops):g} / {step} is not finite")
    y, log_bound = to_parity(f0, grid), math.log2(bound)  # so s never overflows
    out = prop_h = held = prop = power = None  # held: the span the power was built for
    most = 1 if dt else grid.order // 2  # r <= N/2 matvecs cost less than one stacked product
    # Python floats: a ratio past the largest double is inf, with no overflow warning
    for k, span in enumerate(np.diff(stops, prepend=0.0).tolist()):
        if span > 0.0:
            m = span / held if held else math.inf
            r = round(m) if m < most + 1 else 0
            if not (1 <= r <= most and abs(span - r * held) <= 4.0 * np.spacing(stops[k])):
                r, n, h, power = 1, 1, span, None  # each stack is dropped before its successor
                if dt:
                    n = max(1, math.ceil(span / dt - 1e-9))
                    h = dt if abs(n * dt - span) <= 1e-9 * span else span / n
                s = max(0, math.ceil(math.log2(h) - log_bound))
                n, h = n << s, math.ldexp(h, -s)
                if h != prop_h:  # one-step propagators of the modes
                    prop = None
                    if prop_h is not None:  # R holds prop_h R: it is scaled in place
                        R = _parity_generator(xi, grid)
                    R *= h
                    prop_h, prop = h, _taylor(R, degree)
                held, power = span, _power(prop, n)
            if out is None:  # not live while the first propagators are built
                out = np.empty((len(stops),) + f0.shape, dtype=complex)
                out[:k] = y  # the start, at t = 0
            for _ in range(r):  # the real power acts on the real and imaginary parts at once
                y = (power @ y.view(float).reshape(*y.shape, 2)).view(complex)[..., 0]
            out[k] = y
    if out is None:  # no stop past t = 0
        out = np.broadcast_to(y, (len(stops),) + y.shape)
    R = prop = power = None  # released before the conversion
    out = from_parity(out, grid)
    out[stops == 0.0] = f0  # no basis roundtrip at t = 0
    return out if np.array_equal(stops, times) else out[order]


def to_parity(f, grid: VelocityGrid) -> np.ndarray:
    """Nodal states (..., N) to parity coordinates (see the module docstring)."""
    return np.where(grid.nodes >= 0.0, f + f[..., ::-1], 1j * (f[..., ::-1] - f))


def from_parity(y, grid: VelocityGrid) -> np.ndarray:
    """Inverse of ``to_parity``: f(+-v) = (e -+ i q) / 2, written half by half
    into the one output array, with no full-size temporary."""
    y, n, c = np.asarray(y), grid.order // 2, 1j * np.sign(grid.nodes)
    f = np.empty(y.shape, dtype=complex)
    up, down, mid = slice(grid.order - n, None), slice(None, n), slice(n, grid.order - n)
    # (e, q) per half: v > 0 takes q from the mirror, v < 0 e; a centre v = 0 is both
    for half, e, q in ((up, y[..., up], y[..., down][..., ::-1]),
                       (down, y[..., up][..., ::-1], y[..., down]), (mid, y[..., mid], y[..., mid])):
        np.subtract(e, np.multiply(c[half], q, out=f[..., half]), out=f[..., half])
    f /= 2
    return f


def _parity_generator(xi, grid: VelocityGrid) -> np.ndarray:
    """A_xi in parity coordinates, R = 1_e (w (1 + sign v))^T - I - xi diag(v) J
    (J the mirror): real, (N, N) for a float xi and (modes, N, N) for an array."""
    v, eye = grid.nodes, np.eye(grid.order)
    return (np.outer(v >= 0.0, grid.weights * (1.0 + np.sign(v))) - eye
            - np.multiply.outer(xi, v[:, None] * eye[::-1]))


def _taylor(X, degree: int) -> np.ndarray:
    """sum_k X^k / k!, k <= degree (a multiple of 4), for a stack X (..., N, N):
    at degree 4 one classical RK4 step of X = hR, at 16 exp(X) to double
    precision where ||X||_1 <= THETA.  Paterson-Stockmeyer: X^2, X^3, X^4, then
    Horner in X^4 over blocks of degree 3, degree/4 + 2 products and no solve."""
    X2 = X @ X
    powers = (X, X2, X2 @ X)  # X^1, X^2, X^3
    X4 = X2 @ X2
    diag = np.arange(X.shape[-1])
    P = np.multiply(_TAYLOR[degree], X4)
    Q = np.empty_like(P)  # the scratch of the scaled adds and Horner products: six stacks live
    for j in range(degree - 4, -1, -4):
        for i, Xp in enumerate(powers, start=1):
            P += np.multiply(_TAYLOR[j + i], Xp, out=Q)
        P[..., diag, diag] += _TAYLOR[j]  # the identity term: a full eye add costs a product
        if j:
            P, Q = np.matmul(X4, P, out=Q), P
    return P


def _power(P, n: int) -> np.ndarray:
    """P^n for n >= 1 by the products of ``np.linalg.matrix_power``, but with no
    squaring past an exactly zero square: a span far past underflow stops early."""
    if n == 3:
        return P @ P @ P
    power = P if n % 2 else None
    while n > 1:
        P, n = P @ P, n // 2
        # the diagonal first: a full scan costs about a sixth of a product
        if not P.diagonal(0, -2, -1).any() and not P.any():
            return P
        if n % 2:
            power = P if power is None else power @ P
    return power


def output_times(t_final: float, dt: float, output_stride: int = 1) -> np.ndarray:
    """Recorded instants of a fixed-step run, float64: every output_stride-th
    multiple of dt from 0, plus t_final, which must be a positive integer
    multiple of dt (a stride past the step count records 0 and t_final)."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not math.isfinite(t_final / dt):
        raise ValueError(f"the step count t_final / dt = {t_final!r} / {dt!r} is not finite")
    n_steps = float(round(t_final / dt))  # a float: past int64 too, arange stays float64
    if n_steps < 1.0:
        raise ValueError(f"t_final={t_final!r} rounds to no step of dt={dt!r}")
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final!r} is not an integer multiple of dt={dt!r}")
    steps = np.arange(0.0, n_steps + 1.0, min(output_stride, n_steps))
    return np.append(steps[steps != n_steps], n_steps) * dt  # np.union1d imports numpy.ma
