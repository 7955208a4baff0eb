"""Dispersion relation of the density-determined solution class.

For a spatial frequency xi the Fourier-mode operator

    A_xi f = -(1 + i xi v) f + <f, 1>_phi

has one slowly decaying eigenpair.  Writing c for the unique solution of

    Xi(c) := integral c phi(v) / (c^2 + v^2) dv = xi,

the eigenvalue is lam(xi) = xi*c - 1 in (-1, 0) and the eigenvector is
the transfer function 1/(b + i xi v) with b = xi*c.  Xi is odd and maps
(0, inf) strictly decreasingly onto (0, sqrt(pi)), so admissible
frequencies form the open band 0 < |xi| < sqrt(pi); the density spectrum
must vanish outside it.

Evaluation: Xi(c) = sqrt(pi) * erfcx(c) for c > 0 (extended oddly), a
closed form the test suite validates against ``xi_of_c_quadrature`` (an
exp-sinh quadrature of the defining integral, with no erfcx) before anything
trusts it.  ``c_of_xi`` inverts a scalar or an array at once: Xi decreases
strictly, so bisecting the int64 bit patterns of the positive doubles
brackets each root between adjacent doubles in at most 63 vectorised erfcx
calls.  (Newton from c = 0 would fail: Xi'(c) = 2*(c*Xi(c) - 1) cancels.)
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .quadrature import SQRT_PI, adaptive_phi_integral

BAND_EDGE = SQRT_PI
DEFAULT_XI_MIN = 1e-6
DEFAULT_EDGE_MARGIN = 1e-6
XI_RESIDUAL_TOL = 1e-11

TABLE_FORMAT_VERSION = 1


class UnsupportedFrequencyError(ValueError):
    """Frequency outside the open admissible band 0 < |xi| < sqrt(pi)."""


def xi_of_c(c):
    """Xi(c) via the scaled complementary error function; odd in c.

    A scalar gives a float, an array an array of its shape.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c == 0.0):
        raise ValueError("Xi is undefined at c = 0 (the integrand is singular); "
                         "the c -> 0 limit is +/- sqrt(pi)")
    xi = np.copysign(SQRT_PI * special.erfcx(np.abs(c)), c)
    return xi if xi.ndim else float(xi)


def xi_of_c_quadrature(c: float) -> float:
    """Xi(c) by exp-sinh quadrature of the defining integral (oracle path)."""
    if c == 0.0:
        raise ValueError("Xi is undefined at c = 0")
    a = abs(c)
    return math.copysign(adaptive_phi_integral(lambda v: a / (a * a + v * v)), c)


def c_of_xi(xi, *, xi_min: float = DEFAULT_XI_MIN,
            edge_margin: float = DEFAULT_EDGE_MARGIN,
            residual_tol: float = XI_RESIDUAL_TOL):
    """Invert Xi on the band: the unique c with Xi(c) = xi and sign(c) = sign(xi).

    A scalar gives a float, an array an array of its shape, each element
    solved independently.  Frequencies outside the open band, or too near 0
    for a finite c, raise UnsupportedFrequencyError.  Within xi_min of 0 or
    edge_margin of the edge the residual tolerance is 100x wider (one warning).
    """
    xi = np.asarray(xi, dtype=float)
    x = np.abs(xi)
    outside = ~((x > 0.0) & (x < BAND_EDGE))
    if np.any(outside):
        raise UnsupportedFrequencyError(
            f"xi={float(xi[outside][0])!r} is outside the open band 0 < |xi| < sqrt(pi) "
            f"~ {BAND_EDGE:.9f}; the density spectrum is identically zero there"
        )
    near = (x < xi_min) | (x > BAND_EDGE - edge_margin)
    if np.any(near):
        warnings.warn(
            f"{np.count_nonzero(near)} near-edge frequencies (first xi="
            f"{float(xi[near][0])!r}) lie within {xi_min:g} of 0 or {edge_margin:g} of "
            f"the band edge; inversion tolerance widened to {100.0 * residual_tol:g}",
            RuntimeWarning, stacklevel=2,
        )

    def residual(c):  # Xi(c) - |xi|: positive at c = 0, negative at c = inf
        return SQRT_PI * special.erfcx(c) - x

    # Positive doubles order like their int64 bit patterns, so bisecting the
    # patterns of [0, inf] brackets the root between adjacent doubles.
    lo = np.zeros(x.shape, dtype=np.int64)
    hi = np.full(x.shape, np.inf).view(np.int64)
    for _ in range(63):
        mid = lo + (hi - lo) // 2
        above = residual(mid.view(np.float64)) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    lo, hi = lo.view(np.float64), hi.view(np.float64)
    r_lo, r_hi = np.abs(residual(lo)), np.abs(residual(hi))
    c, r = np.where(r_hi <= r_lo, hi, lo), np.minimum(r_lo, r_hi)
    overflow = ~np.isfinite(c)  # subnormal |xi|: Xi(inf) = 0 passes the residual test
    if np.any(overflow):
        raise UnsupportedFrequencyError(f"xi={float(xi[overflow][0])!r} is too close to 0: "
                                        "its root c exceeds the largest double")
    tol = np.where(near, 100.0 * residual_tol, residual_tol)
    over = r > tol
    if np.any(over):
        raise ArithmeticError(
            f"inversion residual {float(r[over][0]):g} exceeds tolerance "
            f"{float(tol[over][0]):g} at xi={float(xi[over][0])!r}"
        )
    c = np.copysign(c, xi)
    return c if c.ndim else float(c)


@dataclass(frozen=True)
class DispersionPoint:
    """One admissible frequency with its decay data.

    xi:  frequency in (-sqrt(pi), 0) or (0, sqrt(pi))
    c:   inverse-dispersion parameter, same sign as xi
    b:   xi*c, always in (0, 1)
    a:   (b - 1)/xi, the imaginary part of the flux coefficient
    lam: b - 1 in (-1, 0); the mode density decays like exp(lam*t)
    """

    xi: float
    c: float
    b: float
    a: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"b = xi*c must lie in (0, 1), got {self.b!r}")
        if math.copysign(1.0, self.c) != math.copysign(1.0, self.xi):
            raise ValueError("c must carry the sign of xi")

    @property
    def k(self) -> complex:
        """Flux coefficient a*i: the mode flux is k(xi) * rho_hat(xi)."""
        return complex(0.0, self.a)


def dispersion_point(xi: float, **kwargs) -> DispersionPoint:
    """Solve the dispersion relation at xi: one row of ``build_table``."""
    table = build_table([xi], **kwargs)
    return DispersionPoint(**{name: float(getattr(table, name)[0])
                              for name in ("xi", "c", "b", "a", "lam")})


def transfer_function(data, grid) -> np.ndarray:
    """Eigenvector 1/(b + i xi v); lifts density to the kinetic state.

    Broadcasts over ``data`` with ``b`` and ``xi`` (a DispersionPoint, or a
    DispersionTable for one row per frequency) and the velocities of
    ``grid`` (a VelocityGrid or values v): shape ``b.shape + v.shape``.
    The denominator never vanishes (b > 0, v real).  Its defining
    identities, integral against phi equal to one and first moment equal
    to a*i, hold at the grid level only as accurately as the quadrature
    resolves the pole at distance c from the real axis; see the README
    accuracy table.
    """
    v = np.asarray(getattr(grid, "nodes", grid))
    lead = (...,) + (None,) * v.ndim
    return 1.0 / (np.asarray(data.b)[lead] + 1j * np.asarray(data.xi)[lead] * v)


@dataclass(frozen=True)
class DispersionTable:
    """Dispersion data tabulated on a fixed frequency set, sorted by xi."""

    xi: np.ndarray
    c: np.ndarray
    b: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.xi.shape[0]
        for name in ("c", "b", "a", "lam"):
            if getattr(self, name).shape != (n,):
                raise ValueError("table columns must share one length")
        if n > 1 and not np.all(np.diff(self.xi) > 0):
            raise ValueError("table frequencies must be strictly increasing")
        for name in ("xi", "c", "b", "a", "lam"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return int(self.xi.shape[0])

    def index_of(self, xi_value):
        """Index of the stored frequency nearest xi_value, matching it to ~1e-12.

        A scalar gives an int and an array an index array of its shape.  A
        frequency missing from the table raises KeyError naming the first.
        """
        x = np.asarray(xi_value, dtype=float)
        stored = np.append(self.xi, np.inf)  # stored[-1] never matches a finite xi
        hi = np.searchsorted(self.xi, x)
        j = np.where(np.abs(stored[hi - 1] - x) <= np.abs(stored[hi] - x), hi - 1, hi)
        missing = ~(np.abs(stored[j] - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))
        if np.any(missing):
            raise KeyError(f"dispersion table has no entry for xi="
                           f"{float(x[missing][0])!r}; rebuild the table over the "
                           "active frequencies")
        return j if j.ndim else int(j)

    def to_csv(self, path) -> None:
        """Write (xi, c, b, lambda) rows at 17 significant digits."""
        lines = [f"# kinrelax dispersion table format v{TABLE_FORMAT_VERSION}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}={self.metadata[key]}")
        lines.append("xi,c,b,lambda")
        for j in range(len(self)):
            lines.append(",".join(f"{v:.17g}" for v in
                                  (self.xi[j], self.c[j], self.b[j], self.lam[j])))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "DispersionTable":
        metadata = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line == "xi,c,b,lambda":
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        key, _, val = body.partition("=")
                        metadata[key.strip()] = val.strip()
                    continue
                rows.append([float(tok) for tok in line.split(",")])
        data = np.array(rows)
        xi, c, b, lam = data.T
        return cls(xi=xi, c=c, b=b, a=lam / xi, lam=lam, metadata=metadata)

    def to_json(self, path) -> None:
        doc = {
            "format_version": TABLE_FORMAT_VERSION,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "points": [
                {"xi": self.xi[j], "c": self.c[j], "b": self.b[j],
                 "a": self.a[j], "lambda": self.lam[j]}
                for j in range(len(self))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_table(xi_values, *, xi_min: float = DEFAULT_XI_MIN,
                edge_margin: float = DEFAULT_EDGE_MARGIN,
                residual_tol: float = XI_RESIDUAL_TOL,
                metadata: dict | None = None) -> DispersionTable:
    """Tabulate dispersion data at the given frequencies (sorted, deduplicated)."""
    xi = np.unique(np.asarray(xi_values, dtype=float))
    c = c_of_xi(xi, xi_min=xi_min, edge_margin=edge_margin, residual_tol=residual_tol)
    b = xi * c
    lam = b - 1.0
    bad = ~((b > 0.0) & (lam < -2.0**-49))  # 8 ulps of 1: -xi^2/2 is lost below ~6e-8
    if np.any(bad):
        raise UnsupportedFrequencyError(
            f"b = xi*c must lie in (0, 1 - 2**-49), got {float(b[bad][0])!r} at xi="
            f"{float(xi[bad][0])!r}; lambda = b - 1 is rounding noise for |xi| < ~6e-8")
    meta = {"xi_residual_tol": residual_tol, "xi_min": xi_min,
            "edge_margin": edge_margin, "count": len(xi)}
    if metadata:
        meta.update(metadata)
    return DispersionTable(xi=xi, c=c, b=b, a=lam / xi, lam=lam, metadata=meta)
