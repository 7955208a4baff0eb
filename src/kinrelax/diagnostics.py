"""Cross-cutting residuals and comparison reports.

Norm conventions: weighted L2 in velocity (the phi pairing), plain
discrete L2 in x, max over frequency modes.  Tolerances live in one
place (``Tolerances``) so pass/fail is reproducible.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .dispersion import DispersionTable, transfer_function
from .direct import BLOCK, distance_to_ray, propagate
from .gds import FieldSnapshot, SpectralDensity
from .quadrature import VelocityGrid


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
    xi_roundtrip: float = 1e-11
    closed_form_vs_quadrature: float = 1e-10
    transfer_identity: float = 1e-8
    eigenpair: float = 1e-8
    spectral_continuity: float = 1e-12
    gds_vs_direct: float = 1e-6

    @classmethod
    def from_dict(cls, overrides: dict | None) -> "Tolerances":
        if not overrides:
            return cls()
        known = {f for f in cls.__dataclass_fields__}
        bad = set(overrides) - known
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
    n = len(values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    out = np.fft.ifft(1j * k * np.fft.fft(values))
    return out.real


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


def spectral_continuity_residual(rho: SpectralDensity, table: DispersionTable,
                                 tolerance: float = 1e-12) -> ResidualReport:
    """Per-mode |lam*rho_hat + i*xi*k*rho_hat| with k = a*i (identically ~0)."""
    idx = rho.active_indices()
    xi = rho.xi_grid[idx]
    j = table.index_of(xi)
    residual = np.abs((table.lam[j] + 1j * xi * (1j * table.a[j])) * rho.rho_hat[idx])
    return ResidualReport(
        name="spectral-continuity",
        residuals=residual,
        tolerance=tolerance,
        metadata={"active_modes": int(len(idx))},
    )


def direct_unit_modes(rho0: SpectralDensity, table: DispersionTable,
                      grid: VelocityGrid, times, method: str = "exact-dense",
                      dt: float | None = None) -> tuple:
    """Direct densities and ray distances, (len(times), active modes) each, of
    every active mode started from its transfer function at unit amplitude.

    Only xi > 0 is integrated (``direct.propagate``, BLOCK states at a
    time); a mode at -xi takes the complex conjugate, which is exact as
    A(-xi) = conj(A(xi)) on the symmetric velocity grid.
    """
    idx = rho0.active_indices()
    partner = np.where(rho0.xi_grid[idx] > 0, idx, len(rho0.xi_grid) - 1 - idx)
    positive, row = np.unique(partner, return_inverse=True)  # grid is symmetric
    xi_pos = rho0.xi_grid[positive]
    lift = transfer_function(table, grid)[table.index_of(xi_pos)]
    dens = np.empty((len(times), len(positive)), dtype=complex)
    dist = np.empty((len(times), len(positive)))
    for lo in range(0, len(positive), BLOCK):
        blk = slice(lo, lo + BLOCK)
        states = propagate(lift[blk], xi_pos[blk], grid, times, method=method, dt=dt)
        dens[:, blk] = states @ grid.weights
        dist[:, blk] = distance_to_ray(states, lift[blk], grid)
        del states  # free before the next block is integrated
    return np.where(rho0.xi_grid[idx] < 0, dens[:, row].conj(), dens[:, row]), dist[:, row]


def compare_gds_direct(rho0: SpectralDensity, times, table: DispersionTable,
                       grid: VelocityGrid, method: str = "exact-dense",
                       tolerance: float = 1e-6, lambda_offset: float = 0.0,
                       rk4_dt: float | None = None) -> ResidualReport:
    """Per-mode, per-time relative error between the closed-form density
    exp(lam t) rho0_hat and the directly integrated mode density.

    The direct side (``direct_unit_modes``) integrates the dense mode ODE
    by eigendecomposition for 'exact-dense' or by stepping for 'rk4'; it
    never touches the dispersion solve.  Residuals run mode by mode in
    grid order, times in the given order.  ``lambda_offset`` corrupts the
    closed-form rate on purpose, for sensitivity checks.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1D array")
    idx = rho0.active_indices()
    if len(idx) == 0:
        raise ValueError("initial spectrum has no active modes")

    unit, _ = direct_unit_modes(rho0, table, grid, times, method=method, dt=rk4_dt)
    xi = rho0.xi_grid[idx]
    amp = rho0.rho_hat[idx][:, None]
    rho_closed = amp * np.exp((table.lam[table.index_of(xi)][:, None] + lambda_offset)
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


def fit_convergence_order(steps, errors) -> float:
    """Least-squares slope of log(error) against log(step)."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if steps.shape != errors.shape or len(steps) < 2:
        raise ValueError("need at least two (step, error) pairs")
    if np.any(steps <= 0) or np.any(errors <= 0):
        raise ValueError("steps and errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0])


def report_to_json(reports, path) -> None:
    """Write a list of ResidualReports as one JSON document."""
    doc = {"reports": [r.to_dict() for r in reports],
           "all_passed": all(r.passed for r in reports)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
