"""Direct mode-by-mode integration of the kinetic equation.

After a Fourier transform in x, the equation decouples into dense linear
ODEs f_t = A_xi f on the velocity grid, one per frequency, with

    A_xi f = -(1 + i xi v) f + <f, 1>_phi.

Nothing in the time stepping uses the dispersion construction: the
eigendecomposition, matrix exponential and RK4 paths below are the
derivation-free oracle the rest of the package is validated against.
``relaxation_distance`` is the one deliberate exception; it measures the
distance of an evolving state to the density-determined ray, which
requires the transfer function.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .dispersion import dispersion_point, transfer_function
from .quadrature import VelocityGrid, as_grid_array, integrate_phi, moment, norm_phi


@dataclass(frozen=True)
class ModeOperator:
    """The generator A_xi, matrix-free with a dense export.

    A float xi acts on states of shape (N,); an array of frequencies (modes,)
    acts row by row on (modes, N) and exports a (modes, N, N) ``dense()``.
    The diagonal -(1 + i xi v) is formed once, at construction.
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

    def dense(self) -> np.ndarray:
        return self.grid.weights + self.diag[..., None] * np.eye(self.grid.order)

    def mass_flux_residual(self, f):
        """|<A f, 1>_phi + i xi <v f, 1>_phi|: mass changes only by flux."""
        return np.abs(integrate_phi(self.apply(f), self.grid)
                      + 1j * self.xi * moment(f, 1, self.grid))

    def hydrodynamic_eigenpair(self):
        """The least-damped eigenpair whose eigenvector carries mass.

        Returns (mu, u) with u scaled so <u, 1>_phi = 1, one pair per row
        for an array xi.  Eigenvectors with a vanishing mass component are
        skipped, as is the spurious real eigenvalue just above -1 (a
        discretization artifact of the fast kinetic branch) since it is
        always more damped than the slow mode.
        """
        mu, vecs = np.linalg.eig(self.dense())
        vecs = np.swapaxes(vecs, -1, -2)  # one eigenvector per row
        mass = integrate_phi(vecs, self.grid)
        carries = np.abs(mass) > 1e-8 * norm_phi(vecs, self.grid)
        if not np.all(np.any(carries, axis=-1)):
            raise ArithmeticError("no eigenvector with a nonvanishing mass component")
        k = np.argmax(np.where(carries, mu.real, -np.inf), axis=-1)
        pick = (*np.indices(k.shape, sparse=True), k)
        return mu[pick], vecs[pick] / mass[pick][..., None]


def rk4_stability_limit(xi, grid: VelocityGrid):
    """Largest stable RK4 step, 2.8 / max_j |1 + i xi v_j|, per frequency."""
    return 2.8 / np.max(np.abs(ModeOperator(xi=xi, grid=grid).diag), axis=-1)


def default_rk4_dt(xi, grid: VelocityGrid):
    """Conservative default step 0.01 / (1 + |xi| vmax), per frequency."""
    return 0.01 / (1.0 + np.abs(xi) * grid.vmax)


# Modes advanced together.  Bounds the (BLOCK, N, N) propagators of the
# exact path and the states a caller holds at once, and lets each RK4 block
# step at the smallest default step of its own modes.
BLOCK = 16


def propagate(f0, xi, grid: VelocityGrid, times, method: str = "exact-dense",
              dt: float | None = None) -> np.ndarray:
    """States of modes f0 (modes, N) at xi (modes,), shape (len(times), modes, N).

    'rk4' is the classical explicit scheme on A f = D*f + (f @ w)[:, None],
    rejected above the stability bound of any mode in a block; 'exact-dense'
    is the high-trust path.  Blocks of BLOCK modes make one pass through the
    sorted distinct times (``times`` may be unsorted or repeated).  With a
    step dt, each span between them takes the fewest equal steps no longer
    than dt, ending on its output time (a step within 1e-9 of dt is taken as
    dt, so evenly spaced outputs share one); 'exact-dense' steps by the
    matrix exponential.  Without dt, 'rk4' steps each block at the smallest
    ``default_rk4_dt`` of its modes and 'exact-dense' evaluates every time
    from one stacked eigendecomposition per block.  A step count that is
    not finite (times / dt overflows) raises ValueError.
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
    stops, order = np.unique(times, return_inverse=True)
    out = np.empty((len(stops),) + f0.shape, dtype=complex)
    for lo in range(0, len(xi), BLOCK):
        blk = slice(lo, lo + BLOCK)
        h = dt
        if method == "rk4":
            h = h or float(np.min(default_rk4_dt(xi[blk], grid)))
            limit = float(np.min(rk4_stability_limit(xi[blk], grid)))
            if h > limit:
                raise ValueError(f"dt={h:g} exceeds the RK4 stability bound {limit:g}")
        if h is not None and not math.isfinite(float(np.max(stops, initial=0.0)) / h):
            raise ValueError(f"the step count {np.max(stops):g} / dt={h:g} is not finite")
        _march(f0[blk], ModeOperator(xi=xi[blk], grid=grid), method, stops, h, out[:, blk])
    return out if np.array_equal(stops, times) else out[order]


def _march(f, op: ModeOperator, method: str, stops, dt, out) -> None:
    """Advance one block from t=0 through the sorted stops into out[k]."""
    if dt is None:  # exact-dense: one eigendecomposition serves every time
        mu, vecs = np.linalg.eig(op.dense())
        coeff = np.linalg.solve(vecs, f[..., None])[..., 0]
        grow = np.exp(mu[:, None, :] * stops[:, None]) * coeff[:, None, :]
        out[:] = np.swapaxes(grow @ np.swapaxes(vecs, -1, -2), 0, 1)
        out[stops == 0.0] = f  # no eigenbasis roundtrip at t = 0
        return
    prop_h = None
    for k, span in enumerate(np.diff(stops, prepend=0.0)):
        n = max(1, math.ceil(span / dt - 1e-9)) if span > 0.0 else 0
        h = dt if abs(n * dt - span) <= 1e-9 * span else span / n
        for _ in range(n):
            if method == "rk4":
                k1 = op.apply(f)
                k2 = op.apply(f + 0.5 * h * k1)
                k3 = op.apply(f + 0.5 * h * k2)
                k4 = op.apply(f + h * k3)
                f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                if h != prop_h:  # one-step propagators of the block
                    prop_h, prop = h, linalg.expm(op.dense() * h)
                f = (prop @ f[:, :, None])[:, :, 0]
        out[k] = f


def step(f, xi: float, grid: VelocityGrid, dt: float, method: str = "rk4") -> np.ndarray:
    """Advance one mode state by one step dt (see ``propagate``)."""
    f = as_grid_array(f, grid)[None]
    return propagate(f, [xi], grid, [dt], method=method, dt=dt)[0, 0]


@dataclass(frozen=True)
class ModeTrajectory:
    """States and densities of one mode recorded along the integration."""

    xi: float
    times: np.ndarray
    states: np.ndarray     # (n_out, grid order), complex
    densities: np.ndarray  # (n_out,), <f(t), 1>_phi


def output_times(t_final: float, dt: float, output_stride: int = 1) -> np.ndarray:
    """Recorded instants of a fixed-step run: every output_stride-th multiple
    of dt from 0, plus t_final, which must be an integer multiple of dt."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError(f"t_final={t_final!r} is not an integer multiple of dt={dt!r}")
    return np.union1d(np.arange(0, n_steps + 1, output_stride), [n_steps]) * dt


def evolve_mode(f0, xi: float, grid: VelocityGrid, t_final: float, dt: float,
                method: str = "exact-dense", output_stride: int = 1) -> ModeTrajectory:
    """Step one mode by dt to t_final, recording every output_stride-th state.

    t_final must be an integer multiple of dt.  The density <f, 1>_phi is
    recorded at each output time.
    """
    times = output_times(t_final, dt, output_stride)
    states = propagate(as_grid_array(f0, grid)[None], [xi], grid, times,
                       method=method, dt=dt)[:, 0]
    return ModeTrajectory(xi=xi, times=times, states=states,
                          densities=states @ grid.weights)


def distance_to_ray(states, K, grid: VelocityGrid) -> np.ndarray:
    """||f - rho K||_phi / ||f||_phi over the last axis, rho = <f, 1>_phi; 0 for
    f = 0 (on the ray, rho = 0).  The ratio is scale-invariant, so each state is
    first scaled exactly by a power of two near its largest |f_j|: no underflow.
    """
    w = grid.weights
    e = np.frexp(np.max(np.abs(states), axis=-1, keepdims=True))[1]
    states = states * np.ldexp(1.0, np.clip(-e, -1022, 1022))
    norm = np.sqrt(np.abs(states) ** 2 @ w)
    off = (states @ w)[..., None] * K
    dist = np.sqrt(np.abs(np.subtract(states, off, out=off)) ** 2 @ w)
    return np.divide(dist, norm, out=np.zeros_like(dist), where=norm > 0.0)


def relaxation_distance(f0, xi: float, grid: VelocityGrid, t_grid,
                        method: str = "exact-dense") -> np.ndarray:
    """Distance of the evolving state to the density-determined ray.

    d(t) = ||f(t) - rho(t) K(xi)||_phi / ||f(t)||_phi with rho(t) the
    state's own instantaneous density and K the transfer function.
    Exploratory diagnostic only: it reports data, it asserts no
    convergence statement.
    """
    f0 = as_grid_array(f0, grid)
    if not np.any(f0):
        raise ValueError("zero-norm state has no meaningful distance to the ray")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) <= 0) \
            or t_grid[0] < 0:
        raise ValueError("t_grid must be a strictly increasing 1D array from t >= 0")
    states = propagate(f0[None], [xi], grid, t_grid, method=method)[:, 0]
    return distance_to_ray(states, transfer_function(dispersion_point(xi), grid), grid)
