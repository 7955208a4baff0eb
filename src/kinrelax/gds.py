"""Assembly of density-determined kinetic solutions.

Given an admissible initial density spectrum rho0_hat, supported inside
the open band (-sqrt(pi), 0) u (0, sqrt(pi)), each mode decays as
exp(lam(xi) t) and the kinetic state is the transfer function times the
density:

    f_hat(t, xi, v) = K_hat(xi, v) * rho_hat(t, xi).

Physical fields are the inverse FFT of the kinetic state's velocity moments.

Domain substitution (deliberate): fields live on a periodic x-domain of
length L = 2*pi/dxi whose discrete frequencies are exactly the spectral
grid, not on the whole real line.  The construction is mode-by-mode and
indifferent to the choice, and it makes every transform below exact
rather than an approximation of an infinite-domain integral.  The
zero-frequency sample is excluded from the admissible band, so admissible
fields always carry zero total mass on the periodic domain.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import ifft

from .dispersion import SQRT_PI, DispersionTable, transfer_function
from .quadrature import VelocityGrid

PROFILE_NAMES = ("gaussian-bump", "hann-band", "single-mode")


def _real_checked(values: np.ndarray, what: str, tol: float = 1e-10) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} is not finite; lower the spectrum's amplitude")
    scale = float(np.max(np.abs(values))) or 1.0
    worst = float(np.max(np.abs(values.imag)))
    if worst > tol * scale:
        raise ArithmeticError(
            f"{what} has imaginary residue {worst:g} (scale {scale:g}); "
            "input spectrum is not Hermitian"
        )
    return values.real.copy()


@dataclass(frozen=True)
class SpectralDensity:
    """Band-limited density spectrum on a uniform symmetric frequency grid.

    Hermitian symmetry (real physical density, on a mirror-symmetric support)
    and the support condition (zero at xi = 0 and at any |xi| >= sqrt(pi))
    are enforced at construction.
    """

    xi_grid: np.ndarray
    rho_hat: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        xi = np.asarray(self.xi_grid, dtype=float)
        rho = np.asarray(self.rho_hat, dtype=complex)
        if xi.ndim != 1 or xi.shape != rho.shape:
            raise ValueError("xi_grid and rho_hat must be 1D arrays of equal length")
        if len(xi) < 3 or len(xi) % 2 == 0:
            raise ValueError("frequency grid must have odd length (symmetric about 0)")
        d = np.diff(xi)
        if np.any(d <= 0) or np.max(np.abs(d - d[0])) > 1e-9 * d[0]:
            raise ValueError("frequency grid must be uniform and increasing")
        if np.max(np.abs(xi + xi[::-1])) > 1e-12 * max(1.0, xi[-1]):
            raise ValueError("frequency grid must be symmetric about 0")
        if not np.all(np.isfinite(rho)):  # a nan passes every comparison below
            raise ValueError("spectrum samples must be finite")
        scale = max(1.0, float(np.max(np.abs(rho))))
        if (np.max(np.abs(rho - np.conj(rho[::-1]))) > 1e-12 * scale
                or not np.array_equal(rho != 0.0, rho[::-1] != 0.0)):
            raise ValueError("spectrum must be Hermitian: rho(-xi) = conj(rho(xi)), and "
                             "zero exactly where its mirror is")
        center = len(xi) // 2
        if rho[center] != 0.0:
            raise ValueError("zero-frequency sample must vanish (admissible band "
                             "excludes xi = 0)")
        out_of_band = np.abs(xi) >= SQRT_PI
        if np.any(rho[out_of_band] != 0.0):
            raise ValueError("samples at |xi| >= sqrt(pi) must vanish")
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "rho_hat", rho)
        xi.setflags(write=False)
        rho.setflags(write=False)

    def active_indices(self) -> np.ndarray:
        return np.nonzero(self.rho_hat)[0]

    def active_frequencies(self) -> np.ndarray:
        return self.xi_grid[self.active_indices()]

    def rows_in(self, table: DispersionTable) -> np.ndarray:
        """Row of ``table`` per active sample, which must hold each active frequency
        as the same float, as ``build_table(active_frequencies())`` does."""
        xi = self.active_frequencies()
        rows = np.searchsorted(table.xi, xi)
        held = np.append(table.xi, np.nan)[rows]  # nan past the last row
        if not np.array_equal(held, xi):
            raise KeyError(f"dispersion table has no entry for xi={float(xi[held != xi][0])!r}"
                           "; rebuild the table over the active frequencies")
        return rows


def make_band_limited_density(profile: str, *, xi_max: float, modes: int,
                              amplitude: float = 1.0, sigma: float | None = None,
                              center: float | None = None,
                              xi0: float | None = None) -> SpectralDensity:
    """Admissible band-limited density spectrum at t = 0.

    The grid is xi_j = j * xi_max/modes for j = -modes..modes; samples
    outside the requested band and the zero-frequency sample are exactly
    zero (hard truncation keeps the support condition exact).

    Profiles (all real and even, hence Hermitian):
      gaussian-bump  exp(-(|xi| - center)^2 / (2 sigma^2)); defaults
                     center = xi_max/2, sigma = xi_max/5
      hann-band      sin^2(pi |xi| / xi_max), vanishing at both band ends
      single-mode    one Hermitian pair at the positive sample nearest xi0
                     (default xi_max/2)
    """
    if not 0.0 < xi_max < SQRT_PI:
        raise ValueError(
            f"xi_max must lie in (0, sqrt(pi) ~ {SQRT_PI:.9f}), got {xi_max!r}; "
            "the admissible band is open"
        )
    if modes < 1:
        raise ValueError("modes must be >= 1")
    dxi = xi_max / modes
    j = np.arange(-modes, modes + 1)
    xi = j * dxi
    mag = np.zeros(len(xi))
    absxi = np.abs(xi)
    inside = (absxi > 0) & (absxi <= xi_max)

    if profile == "gaussian-bump":
        s = sigma if sigma is not None else xi_max / 5.0
        c0 = center if center is not None else xi_max / 2.0
        if s <= 0:
            raise ValueError("sigma must be positive")
        # 2 s^2 may underflow to 0; the nan or 0 samples that follow are named by the
        # spectrum's finiteness check, so numpy's divide warnings are not printed too
        with np.errstate(divide="ignore", invalid="ignore"):
            mag[inside] = amplitude * np.exp(-((absxi[inside] - c0) ** 2) / (2.0 * s * s))
    elif profile == "hann-band":
        mag[inside] = amplitude * np.sin(math.pi * absxi[inside] / xi_max) ** 2
    elif profile == "single-mode":
        target = xi0 if xi0 is not None else xi_max / 2.0
        if not 0.0 < target <= xi_max:
            raise ValueError(f"xi0 must lie in (0, xi_max], got {target!r}")
        pos = np.nonzero(xi > 0)[0]
        i = pos[np.argmin(np.abs(xi[pos] - target))]
        mag[i] = amplitude
        mag[len(xi) - 1 - i] = amplitude
    else:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILE_NAMES}")

    return SpectralDensity(xi_grid=xi, rho_hat=mag.astype(complex))


def evolve_density(rho0: SpectralDensity, t: float,
                   table: DispersionTable) -> SpectralDensity:
    """rho_hat(t0 + t, xi) = rho_hat(t0, xi) * exp(lam(xi) t) per active sample.

    The table must hold every active frequency (``SpectralDensity.rows_in``);
    a missing one raises KeyError naming it.  Negative t is allowed but
    amplifies modes by exp(|lam| |t|) and is flagged.
    """
    if t < 0:
        warnings.warn("backward evolution amplifies every mode by exp(|lam| |t|)",
                      RuntimeWarning, stacklevel=2)
    rho = rho0.rho_hat.copy()
    idx = rho0.active_indices()
    rho[idx] = rho[idx] * np.exp(table.lam[rho0.rows_in(table)] * t)
    return SpectralDensity(xi_grid=rho0.xi_grid, rho_hat=rho, time=rho0.time + t)


@dataclass(frozen=True)
class KineticStateSpectral:
    """Kinetic Fourier state f_hat on the (frequency x velocity) lattice."""

    xi_grid: np.ndarray
    f_hat: np.ndarray
    grid: VelocityGrid
    time: float = 0.0

    def __post_init__(self):
        if self.f_hat.shape != (len(self.xi_grid), self.grid.order):
            raise ValueError("f_hat must have shape (len(xi_grid), grid order)")
        self.f_hat.setflags(write=False)

    def density(self) -> np.ndarray:
        """Per-mode density <f_hat(xi, .), 1>_phi."""
        return self.f_hat @ self.grid.weights

    def flux(self) -> np.ndarray:
        """Per-mode flux <f_hat(xi, .), v>_phi."""
        return self.f_hat @ (self.grid.weights * self.grid.nodes)


def lift_to_kinetic(rho: SpectralDensity, table: DispersionTable,
                    grid: VelocityGrid) -> KineticStateSpectral:
    """f_hat(xi, .) = K_hat(xi, .) * rho_hat(xi) on the active band."""
    f_hat = np.zeros((len(rho.xi_grid), grid.order), dtype=complex)
    idx = rho.active_indices()
    f_hat[idx] = transfer_function(table, grid)[rho.rows_in(table)] * rho.rho_hat[idx, None]
    return KineticStateSpectral(xi_grid=rho.xi_grid, f_hat=f_hat, grid=grid,
                                time=rho.time)


@dataclass(frozen=True)
class FieldSnapshot:
    """Physical-space fields on a periodic domain at one instant."""

    x_grid: np.ndarray
    rho: np.ndarray
    flux: np.ndarray
    time: float = 0.0
    f: np.ndarray | None = None  # optional (x, v) molecular density matrix

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def domain_length(self) -> float:
        return float(len(self.x_grid) * self.dx)


def _synthesize(values: np.ndarray, modes: int, x_points: int, L: float) -> np.ndarray:
    # field(x_n) = (1/L) sum_j values_j exp(i xi_j x_n) along axis 0: the Riemann
    # form of the inverse transform on the periodic domain.  Mode j (index
    # -modes..modes) goes to FFT bin j mod x_points.  A field that overflows is
    # named by _real_checked, so numpy's overflow warnings are not printed too.
    packed = np.zeros((x_points,) + values.shape[1:], dtype=complex)
    packed[np.arange(-modes, modes + 1) % x_points] = values
    with np.errstate(over="ignore", invalid="ignore"):
        ifft(packed, axis=0, out=packed)
        packed *= x_points / L
    return packed


def to_physical(state: KineticStateSpectral, x_points: int,
                include_f: bool = False) -> FieldSnapshot:
    """Inverse transform to x_points samples on the periodic domain [0, 2*pi/dxi).

    Density and flux are the state's own velocity moments.  x_points must
    be a power of two with x_points >= 2*(modes + 1) so the extreme modes
    stay strictly below the Nyquist index.
    """
    if not isinstance(state, KineticStateSpectral):
        raise TypeError(f"unsupported state type {type(state).__name__}; "
                        "lift a SpectralDensity with lift_to_kinetic first")
    modes = (len(state.xi_grid) - 1) // 2
    L = 2.0 * math.pi / float(state.xi_grid[1] - state.xi_grid[0])
    if x_points < 2 * (modes + 1):
        raise ValueError(f"x_points={x_points} must be >= 2*(modes+1)={2 * (modes + 1)}")
    if x_points & (x_points - 1):
        raise ValueError(f"x_points={x_points} must be a power of two")

    rho = _real_checked(_synthesize(state.density(), modes, x_points, L), "density field")
    flux = _real_checked(_synthesize(state.flux(), modes, x_points, L), "flux field")
    f = (_real_checked(_synthesize(state.f_hat, modes, x_points, L), "molecular density field")
         if include_f else None)

    x_grid = np.arange(x_points) * (L / x_points)
    return FieldSnapshot(x_grid=x_grid, rho=rho, flux=flux, time=state.time, f=f)

