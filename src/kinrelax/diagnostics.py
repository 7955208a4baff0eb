"""Cross-cutting residuals and comparison reports.

The checks of the construction (``dispersion``, ``gds``) against the
direct mode integration (``direct``) live here; ``cli``'s property battery
adds two rows of ``ModeOperator`` against the table.  ``direct`` imports
neither side, so the oracle never sees the dispersion solve.

Norm conventions: weighted L2 in velocity (the phi pairing), plain
discrete L2 in x, max over frequency modes.  Tolerances live in one
place (``Tolerances``) so pass/fail is reproducible.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft, fftfreq, ifft

from .dispersion import XI_RESIDUAL_TOL, DispersionTable, transfer_function
from .direct import propagate
from .gds import FieldSnapshot, SpectralDensity
from .quadrature import VelocityGrid

# Modes per ``propagate`` call: bounds the (BLOCK, N, N) propagators, powers and
# states held at once, and each RK4 block steps within its own smallest default.
BLOCK = 8


@dataclass(frozen=True)
class Tolerances:
    """Centralized pass/fail thresholds with their documented defaults."""

    mass_conservation: float = 1e-12
    self_adjoint: float = 1e-12
    negative_semidefinite: float = 1e-12
    operator_norm: float = 2.0 + 1e-9
    collision_spectrum: float = 1e-10
    weights_sum: float = 1e-12
    second_moment: float = 1e-10
    xi_roundtrip: float = XI_RESIDUAL_TOL
    closed_form_vs_quadrature: float = 1e-10
    transfer_identity: float = 1e-8
    eigenpair: float = 1e-8
    spectral_continuity: float = 1e-12
    gds_vs_direct: float = 1e-6

    @classmethod
    def from_dict(cls, overrides: dict | None) -> "Tolerances":
        overrides = overrides or {}
        bad = set(overrides) - set(cls.__dataclass_fields__)
        if bad:
            raise ValueError(f"unknown tolerance keys: {sorted(bad)}")
        return cls(**{k: float(v) for k, v in overrides.items()})


@dataclass(frozen=True)
class ResidualReport:
    """Named residual set with its tolerance; passes iff max <= tolerance."""

    name: str
    residuals: np.ndarray
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0

    @property
    def l2_residual(self) -> float:
        return float(np.sqrt(np.sum(np.asarray(self.residuals) ** 2)))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "l2_residual": self.l2_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "count": int(self.residuals.size),
            "metadata": self.metadata,
        }

    def format_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max={self.max_residual:.3e} "
                f"l2={self.l2_residual:.3e} tol={self.tolerance:.3e} "
                f"(n={self.residuals.size})")


def spectral_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Exact periodic d/dx of a real sample array via the FFT."""
    k = 2.0 * np.pi * fftfreq(len(values), d=dx)
    return ifft(1j * k * fft(values)).real


def continuity_residual(before: FieldSnapshot, center: FieldSnapshot,
                        after: FieldSnapshot, tolerance: float = 1e-6) -> ResidualReport:
    """Physical-space continuity check on three equally spaced snapshots.

    Central-difference d(rho)/dt plus the spectral x-derivative of the
    flux; for states of the solution class the only error is the O(dt^2)
    time difference, so the residual must shrink at second order under
    dt-halving.
    """
    for other in (before, after):
        if other.x_grid.shape != center.x_grid.shape or \
                np.max(np.abs(other.x_grid - center.x_grid)) > 1e-12 * center.domain_length:
            raise ValueError("snapshots live on different x-grids")
    dt_lo = center.time - before.time
    dt_hi = after.time - center.time
    if dt_lo <= 0 or abs(dt_hi - dt_lo) > 1e-12 * max(1.0, dt_lo):
        raise ValueError("snapshots must be equally spaced in time (before, center, after)")
    drho_dt = (after.rho - before.rho) / (2.0 * dt_lo)
    dflux_dx = spectral_derivative(center.flux, center.dx)
    residual = np.abs(drho_dt + dflux_dx)
    return ResidualReport(
        name="continuity-closure",
        residuals=residual,
        tolerance=tolerance,
        metadata={"dt": dt_lo, "time": center.time, "x_points": len(center.x_grid)},
    )


def spectral_continuity_residual(
        rho: SpectralDensity, table: DispersionTable,
        tolerance: float = Tolerances.spectral_continuity) -> ResidualReport:
    """Per-mode |lam*rho_hat + i*xi*k*rho_hat| with k = a*i (identically ~0)."""
    idx, j = rho.active_indices(), rho.rows_in(table)
    residual = np.abs((table.lam[j] + 1j * rho.xi_grid[idx] * (1j * table.a[j]))
                      * rho.rho_hat[idx])
    return ResidualReport(
        name="spectral-continuity",
        residuals=residual,
        tolerance=tolerance,
        metadata={"active_modes": int(len(idx))},
    )


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


def direct_unit_modes(rho0: SpectralDensity, table: DispersionTable,
                      grid: VelocityGrid, times, method: str = "exact-dense",
                      dt: float | None = None, distances: bool = True) -> tuple:
    """Direct densities and ray distances, (len(times), active modes) each, of
    every active mode started from its transfer function at unit amplitude;
    None for the distances unless ``distances``.

    Only the upper half, xi > 0, of the active rows (``SpectralDensity.rows_in``)
    is integrated (``direct.propagate``, BLOCK states at a time); the support is
    symmetric, so the lower half mirrors it, conjugated: A(-xi) = conj(A(xi))
    exactly on the symmetric velocity grid.
    """
    rows = rho0.rows_in(table)
    rows = rows[len(rows) // 2:]
    xi, lift = table.xi[rows], transfer_function(table, grid)[rows]
    dens = np.empty((len(times), len(rows)), dtype=complex)
    dist = np.empty((len(times), len(rows))) if distances else None
    for lo in range(0, len(rows), BLOCK):
        blk = slice(lo, lo + BLOCK)
        states = propagate(lift[blk], xi[blk], grid, times, method=method, dt=dt)
        dens[:, blk] = states @ grid.weights
        if distances:
            dist[:, blk] = distance_to_ray(states, lift[blk], grid)
        del states  # free before the next block is integrated
    return (np.concatenate([dens[:, ::-1].conj(), dens], axis=1),
            None if dist is None else np.concatenate([dist[:, ::-1], dist], axis=1))


def compare_gds_direct(rho0: SpectralDensity, times, table: DispersionTable,
                       grid: VelocityGrid, method: str = "exact-dense",
                       tolerance: float = Tolerances.gds_vs_direct,
                       lambda_offset: float = 0.0) -> ResidualReport:
    """Per-mode, per-time relative error between the closed-form density
    exp(lam t) rho0_hat and the directly integrated mode density.

    The direct side (``direct_unit_modes``) integrates the dense mode ODE
    by scaling and squaring for 'exact-dense' or by stepping for 'rk4'; it
    never touches the dispersion solve.  ``table`` must hold every active
    frequency (KeyError otherwise).  Residuals run mode by mode in grid
    order, times in the given order.  ``lambda_offset`` corrupts the
    closed-form rate on purpose, for sensitivity checks.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1D array")
    idx = rho0.active_indices()
    if len(idx) == 0:
        raise ValueError("initial spectrum has no active modes")

    unit, _ = direct_unit_modes(rho0, table, grid, times, method=method, distances=False)
    xi = rho0.xi_grid[idx]
    amp = rho0.rho_hat[idx][:, None]
    rho_closed = amp * np.exp((table.lam[rho0.rows_in(table)][:, None] + lambda_offset)
                              * times)
    residuals = np.abs(amp * unit.T - rho_closed) / np.abs(amp)
    m, j = np.unravel_index(np.argmax(residuals), residuals.shape)  # first maximum

    return ResidualReport(
        name="gds-vs-direct",
        residuals=residuals.ravel(),
        tolerance=tolerance,
        metadata={
            "method": method,
            "times": times.tolist(),
            "active_modes": int(len(idx)),
            "lambda_offset": lambda_offset,
            "worst": {"xi": float(xi[m]), "t": float(times[j]),
                      "value": float(residuals[m, j])},
        },
    )

