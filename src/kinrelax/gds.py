"""Assembly of density-determined kinetic solutions.

Given an admissible initial density spectrum rho0_hat, supported inside
the open band (-sqrt(pi), 0) u (0, sqrt(pi)), each mode decays as
exp(lam(xi) t) and the kinetic state is the transfer function times the
density:

    f_hat(t, xi, v) = K_hat(xi, v) * rho_hat(t, xi).

Physical fields come from the inverse FFT.

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

from .dispersion import SQRT_PI, DispersionTable, transfer_function
from .direct import ModeOperator
from .quadrature import VelocityGrid, norm_phi

DEFAULT_TRUNCATION = 0.95 * SQRT_PI

PROFILE_NAMES = ("gaussian-bump", "hann-band", "single-mode")


def _real_checked(values: np.ndarray, what: str, tol: float = 1e-10) -> np.ndarray:
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

    Hermitian symmetry (real physical density) and the support condition
    (zero at the zero frequency and at any |xi| >= sqrt(pi)) are enforced
    at construction.
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
        scale = max(1.0, float(np.max(np.abs(rho))))
        if np.max(np.abs(rho - np.conj(rho[::-1]))) > 1e-12 * scale:
            raise ValueError("spectrum must be Hermitian: rho(-xi) = conj(rho(xi))")
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

    @property
    def dxi(self) -> float:
        return float(self.xi_grid[1] - self.xi_grid[0])

    @property
    def domain_length(self) -> float:
        """Periodic domain length matched to the grid: L = 2*pi/dxi."""
        return 2.0 * math.pi / self.dxi

    def active_indices(self) -> np.ndarray:
        return np.nonzero(self.rho_hat)[0]

    def active_frequencies(self) -> np.ndarray:
        return self.xi_grid[self.active_indices()]


def make_band_limited_density(profile: str, *, xi_max: float = DEFAULT_TRUNCATION,
                              modes: int = 128, amplitude: float = 1.0,
                              sigma: float | None = None,
                              center: float | None = None,
                              xi0: float | None = None,
                              time: float = 0.0) -> SpectralDensity:
    """Admissible band-limited density spectrum at the given time (default t=0).

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

    return SpectralDensity(xi_grid=xi, rho_hat=mag.astype(complex), time=time)


def evolve_density(rho0: SpectralDensity, t: float,
                   table: DispersionTable) -> SpectralDensity:
    """rho_hat(t0 + t, xi) = rho_hat(t0, xi) * exp(lam(xi) t) per active sample.

    Every active frequency must be present in the table; a missing sample
    raises KeyError naming it.  Negative t is allowed but amplifies modes
    by exp(|lam| |t|) and is flagged.
    """
    if t < 0:
        warnings.warn("backward evolution amplifies every mode by exp(|lam| |t|)",
                      RuntimeWarning, stacklevel=2)
    rho = rho0.rho_hat.copy()
    idx = rho0.active_indices()
    rho[idx] = rho[idx] * np.exp(table.lam[table.index_of(rho0.xi_grid[idx])] * t)
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

    @property
    def dxi(self) -> float:
        return float(self.xi_grid[1] - self.xi_grid[0])

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
    f_hat[idx] = (transfer_function(table, grid)[table.index_of(rho.xi_grid[idx])]
                  * rho.rho_hat[idx, None])
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

    def total_mass(self) -> float:
        return float(np.sum(self.rho) * self.dx)


def _synthesize(values: np.ndarray, modes: int, x_points: int, L: float) -> np.ndarray:
    # field(x_n) = (1/L) sum_j values_j exp(i xi_j x_n) along axis 0: the Riemann
    # form of the inverse transform on the periodic domain.  Mode j (index
    # -modes..modes) goes to FFT bin j mod x_points.
    packed = np.zeros((x_points,) + values.shape[1:], dtype=complex)
    packed[np.arange(-modes, modes + 1) % x_points] = values
    return np.fft.ifft(packed, axis=0) * (x_points / L)


def to_physical(state, x_points: int, table: DispersionTable | None = None,
                include_f: bool = False) -> FieldSnapshot:
    """Inverse transform to x_points samples on the periodic domain [0, 2*pi/dxi).

    ``state`` is a SpectralDensity (needs ``table`` for the flux, which is
    i*a(xi)*rho_hat) or a KineticStateSpectral (density and flux are its
    own velocity moments).  x_points must be a power of two with
    x_points >= 2*(modes + 1) so the extreme modes stay strictly below the
    Nyquist index.
    """
    if isinstance(state, SpectralDensity):
        xi_grid = state.xi_grid
        rho_hat = state.rho_hat
        if table is None:
            raise ValueError("a dispersion table is required to form the flux "
                             "from a bare SpectralDensity")
        flux_hat = np.zeros_like(rho_hat)
        idx = state.active_indices()
        flux_hat[idx] = 1j * table.a[table.index_of(xi_grid[idx])] * rho_hat[idx]
        f_hat = None
        if include_f:
            raise ValueError("include_f requires a KineticStateSpectral input")
    elif isinstance(state, KineticStateSpectral):
        xi_grid = state.xi_grid
        rho_hat = state.density()
        flux_hat = state.flux()
        f_hat = state.f_hat if include_f else None
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")

    modes = (len(xi_grid) - 1) // 2
    dxi = float(xi_grid[1] - xi_grid[0])
    L = 2.0 * math.pi / dxi
    if x_points < 2 * (modes + 1):
        raise ValueError(f"x_points={x_points} must be >= 2*(modes+1)={2 * (modes + 1)}")
    if x_points & (x_points - 1):
        raise ValueError(f"x_points={x_points} must be a power of two")

    rho = _real_checked(_synthesize(rho_hat, modes, x_points, L), "density field")
    flux = _real_checked(_synthesize(flux_hat, modes, x_points, L), "flux field")
    f = None
    if f_hat is not None:
        f = _real_checked(_synthesize(f_hat, modes, x_points, L), "molecular density field")

    x_grid = np.arange(x_points) * (L / x_points)
    return FieldSnapshot(x_grid=x_grid, rho=rho, flux=flux,
                         time=getattr(state, "time", 0.0), f=f)


def kernel_kv(v: float, y_grid, table: DispersionTable) -> np.ndarray:
    """Convolution kernel at fixed molecular velocity v on the given offsets.

    Synthesized as (dxi/2pi) * sum_j K_hat(xi_j, v) exp(i xi_j y) over the
    table's frequencies: the periodic-domain inverse transform of the
    band-limited transfer function.  The table must be sign-symmetric
    (K_hat(-xi) = conj K_hat(xi) makes the sum real); its frequency set
    must be uniform apart from the admissible hole at xi = 0.
    """
    xi = table.xi
    if np.max(np.abs(xi + xi[::-1])) > 1e-12 * max(1.0, float(xi[-1])):
        raise ValueError("kernel synthesis needs a sign-symmetric frequency table")
    gaps = np.diff(xi)
    dxi = float(np.min(gaps))
    ok = np.isclose(gaps, dxi, rtol=1e-9) | np.isclose(gaps, 2 * dxi, rtol=1e-9)
    if not np.all(ok):
        raise ValueError("kernel synthesis needs uniformly spaced frequencies "
                         "(a single gap at xi = 0 is allowed)")
    y = np.asarray(y_grid, dtype=float)
    k_hat = transfer_function(table, v)
    kernel = (dxi / (2.0 * math.pi)) * (np.exp(1j * np.outer(y, xi)) @ k_hat)
    return _real_checked(kernel, "convolution kernel")


def pide_residual(state: KineticStateSpectral, table: DispersionTable,
                  mode: str = "analytic", dt_probe: float = 1e-4) -> float:
    """Max over active modes of ||df/dt + (1 + i xi v) f_hat - rho_hat||_phi.

    'analytic' takes df/dt = lam*f_hat, exact for the solution class, so
    the residual is roundoff plus the quadrature drift of the recomputed
    density.  'fd' replaces lam by a centered difference of the
    exponential propagator at step dt_probe, adding an O(dt_probe^2)
    term; the two modes separate algebra errors from discretization.
    """
    if mode not in ("analytic", "fd"):
        raise ValueError(f"unknown residual mode {mode!r}; use 'analytic' or 'fd'")
    if mode == "fd" and dt_probe <= 0:
        raise ValueError("dt_probe must be positive")
    idx = np.nonzero(np.any(state.f_hat, axis=1))[0]
    xi = state.xi_grid[idx]
    lam = table.lam[table.index_of(xi)][:, None]
    f = state.f_hat[idx]
    if mode == "fd":
        lam = (np.exp(lam * dt_probe) - np.exp(-lam * dt_probe)) / (2.0 * dt_probe)
    r = lam * f - ModeOperator(xi=xi, grid=state.grid).apply(f)
    return float(np.max(norm_phi(r, state.grid), initial=0.0))
