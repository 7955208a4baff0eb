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
trusts it.  ``erfcx`` is this module's own: t exp((1 - z) Q(z)) with
t = 2/(2 + x) and z = 2t - 1, Q a degree-27 fit valid on all of [0, inf].
``c_of_xi`` inverts a scalar or an array at once: four Newton steps from the
upper bound 1/|xi| - |xi|/pi, then, Xi decreasing strictly, bisection of the
int64 bit patterns of the positive doubles in a window around the Newton
root, which brackets each root between adjacent doubles.  An element whose
window does not bracket its root is bisected over all of [0, inf].
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import SQRT_PI, VelocityGrid, adaptive_phi_integral

DEFAULT_XI_MIN = 1e-6
DEFAULT_EDGE_MARGIN = 1e-6
XI_RESIDUAL_TOL = 1e-11
NEWTON_STEPS = 4  # from the upper bound: within 7 c-widths of an ulp of Xi everywhere
_INF_BITS = int(np.array(np.inf).view(np.int64))


class UnsupportedFrequencyError(ValueError):
    """Frequency outside the open admissible band 0 < |xi| < sqrt(pi)."""


# Q(z) = sum_j a_j z^j, j = 0..27: the Chebyshev interpolant of log(erfcx(x)/t)/(1 - z)
# at 120 nodes of z in [-1, 1], in monomials (sum |a_j| = 0.73, so Horner loses nothing
# to cancellation) and truncated where the remaining terms sum to 3.5e-18; computed in
# 60-digit mpmath (tests/test_dispersion.py repeats the fit).  Stored as 7 blocks of 4,
# _ERFCX_Q[l, i] = a_(4i + 3 - l), so one Horner pass evaluates every block at once.
_ERFCX_Q = np.array([
    -0.6717940840566923, 0.0008491399209644909, 0.04819244676286789, 0.0012968365316893635,
    -0.00857585283463361, 0.0002490857225432418, 0.0020080192786274586, -0.0003377932238036185,
    -0.0004840400642767997, 0.00018963874970332408, 9.590353529376485e-05, -7.839952030138365e-05,
    -6.997556664820678e-06, 2.4748045535770207e-05, -5.443177948345484e-06, -5.306577843410121e-06,
    3.2642259618787087e-06, 3.183264905799985e-07, -9.681005886956139e-07, 2.79241521368959e-07,
    1.2783030423374562e-07, -1.1939991756011596e-07, 1.9741534316959914e-08, 1.9847112254205194e-08,
    -1.160622601041129e-08, 1.2555542339131563e-11, 1.6035233706991316e-09, -3.5284490265853145e-10,
]).reshape(7, 4)[:, ::-1].T[..., None].copy()


def erfcx(x) -> np.ndarray:
    """exp(x^2) erfc(x) for x >= 0, elementwise: 1 at 0, 0 at inf, and within
    7e-16 relative of the exact value elsewhere; an array of the shape of x."""
    x = np.asarray(x, dtype=float)
    t = 2.0 / (2.0 + x.reshape(-1))
    z = t + t
    z -= 1.0
    q = _ERFCX_Q[0] * z  # (7, n): the blocks by Horner in z
    for a in _ERFCX_Q[1:-1]:
        q += a
        q *= z
    q += _ERFCX_Q[-1]
    z4 = z * z
    z4 *= z4
    y = q[-1] * z4  # the blocks by Horner in z^4 (y is no view of q: numpy copies
    for block in q[-2:0:-1]:  # operands that may overlap)
        y += block
        y *= z4
    y += q[0]
    y *= 1.0 - z  # exactly 0 at x = 0
    np.exp(y, out=y)
    y *= t
    return y.reshape(x.shape)


def xi_of_c(c):
    """Xi(c) via the scaled complementary error function; odd in c.

    A scalar gives a float, an array an array of its shape.
    """
    c = np.asarray(c, dtype=float)
    if np.any(c == 0.0):
        raise ValueError("Xi is undefined at c = 0 (the integrand is singular); "
                         "the c -> 0 limit is +/- sqrt(pi)")
    xi = np.copysign(SQRT_PI * erfcx(np.abs(c)), c)
    return xi if xi.ndim else float(xi)


def xi_of_c_quadrature(c):
    """Xi(c) by exp-sinh quadrature of its integral (oracle path), an array in one sum."""
    c = np.asarray(c, dtype=float)
    if np.any(c == 0.0):
        raise ValueError("Xi is undefined at c = 0")
    a = np.abs(c)[..., None]  # one row of nodes per value
    xi = np.copysign(adaptive_phi_integral(lambda v: a / (a * a + v * v)), c)
    return xi if xi.ndim else float(xi)


def c_of_xi(xi, *, xi_min: float = DEFAULT_XI_MIN,
            edge_margin: float = DEFAULT_EDGE_MARGIN):
    """Invert Xi on the band: the unique c with Xi(c) = xi and sign(c) = sign(xi).

    A scalar gives a float, an array an array of its shape, each element
    solved independently.  Frequencies outside the open band, or too near 0
    for a finite c, raise UnsupportedFrequencyError.  Within xi_min of 0 or
    edge_margin of the edge the residual tolerance XI_RESIDUAL_TOL is 100x
    wider (one warning).
    """
    xi = np.asarray(xi, dtype=float)
    shape, xi = xi.shape, xi.ravel()
    x = np.abs(xi)
    outside = ~((x > 0.0) & (x < SQRT_PI))
    if np.any(outside):
        raise UnsupportedFrequencyError(
            f"xi={float(xi[outside][0])!r} is outside the open band 0 < |xi| < sqrt(pi) "
            f"~ {SQRT_PI:.9f}; the density spectrum is identically zero there"
        )
    near = (x < xi_min) | (x > SQRT_PI - edge_margin)
    if np.any(near):
        warnings.warn(
            f"{np.count_nonzero(near)} near-edge frequencies (first xi="
            f"{float(xi[near][0])!r}) lie within {xi_min:g} of 0 or {edge_margin:g} of "
            f"the band edge; inversion tolerance widened to {100.0 * XI_RESIDUAL_TOL:g}",
            RuntimeWarning, stacklevel=2,
        )

    def residual(c):  # Xi(c) - |xi|: positive at c = 0, negative at c = inf
        return SQRT_PI * erfcx(c) - x

    # Newton from the upper bound 1/x - x/pi; Xi is convex and decreasing, so
    # after the first step the iterates climb to the root.  Xi'(c) = 2 d with
    # d = c Xi - 1, which cancels for large c: its magnitude is floored by
    # 1/(2c^2 + 3) <= |d|.  1/x overflows for subnormal x; a c that is not
    # finite there fails the bracket check below.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = 1.0 / x - x / math.pi
        for _ in range(NEWTON_STEPS):
            xi_c = SQRT_PI * erfcx(c)
            d = c * xi_c - 1.0
            np.fmin(d, -1.0 / (2.0 * c * c + 3.0), out=d)
            c -= (xi_c - x) / (d + d)
        c = np.fmax(c, 0.0)  # drops a nan
        # Newton stalls within a few c-widths of one ulp of Xi of the root
        # (about 1,000 ulps of c at 1e-3 from the edge): the window is 16 of
        # them, capped so that bits + half cannot overflow
        ulps = np.spacing(x) / (np.spacing(c) * np.abs(d + d))
        half = (16.0 * (1.0 + np.fmin(ulps, 2.0**40))).astype(np.int64)
    # Positive doubles order like their int64 bit patterns, so bisecting the
    # patterns of a bracket narrows it to adjacent doubles.
    bits = c.view(np.int64)
    lo, hi = np.maximum(bits - half, 0), np.minimum(bits + half, _INF_BITS)
    r = residual(np.stack([lo, hi]).view(np.float64))
    brackets = (r[0] > 0.0) & (r[1] <= 0.0)
    lo, hi = np.where(brackets, lo, 0), np.where(brackets, hi, _INF_BITS)
    for _ in range(int(np.max(hi - lo, initial=1) - 1).bit_length()):
        mid = lo + (hi - lo) // 2
        above = residual(mid.view(np.float64)) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    ends = np.stack([lo, hi]).view(np.float64)
    r = np.abs(residual(ends))
    c, r = np.where(r[1] <= r[0], ends[1], ends[0]), np.minimum(r[0], r[1])
    overflow = ~np.isfinite(c)  # subnormal |xi|: Xi(inf) = 0 passes the residual test
    if np.any(overflow):
        raise UnsupportedFrequencyError(f"xi={float(xi[overflow][0])!r} is too close to 0: "
                                        "its root c exceeds the largest double")
    tol = np.where(near, 100.0 * XI_RESIDUAL_TOL, XI_RESIDUAL_TOL)
    over = r > tol
    if np.any(over):
        raise ArithmeticError(
            f"inversion residual {float(r[over][0]):g} exceeds tolerance "
            f"{float(tol[over][0]):g} at xi={float(xi[over][0])!r}"
        )
    c = np.copysign(c, xi).reshape(shape)
    return c if c.ndim else float(c)


def transfer_function(table, grid: VelocityGrid) -> np.ndarray:
    """Eigenvector 1/(b + i xi v); lifts density to the kinetic state.

    One row per row of ``table`` (a DispersionTable; one row,
    ``build_table([xi])``, for a single frequency) over the nodes of
    ``grid``: shape ``(len(table), grid.order)``.  The denominator never
    vanishes (b > 0, v real).  Its defining identities, integral against phi
    equal to one and first moment equal to a*i, hold at the grid level only
    as accurately as the quadrature resolves the pole at distance c from the
    real axis; see the README accuracy table.
    """
    return 1.0 / (table.b[:, None] + 1j * table.xi[:, None] * grid.nodes)


@dataclass(frozen=True)
class DispersionTable:
    """Dispersion data tabulated on a fixed frequency set, sorted by xi."""

    xi: np.ndarray
    c: np.ndarray
    b: np.ndarray
    a: np.ndarray
    lam: np.ndarray

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


def build_table(xi_values, *, xi_min: float = DEFAULT_XI_MIN,
                edge_margin: float = DEFAULT_EDGE_MARGIN) -> DispersionTable:
    """Tabulate dispersion data at the given frequencies (sorted, deduplicated)."""
    xi = np.sort(np.asarray(xi_values, dtype=float), axis=None)
    xi = xi[np.diff(xi, prepend=-np.inf) != 0.0]  # np.unique would import numpy.ma
    c = c_of_xi(xi, xi_min=xi_min, edge_margin=edge_margin)
    b = xi * c
    lam = b - 1.0
    bad = ~((b > 0.0) & (lam < -2.0**-49))  # 8 ulps of 1: -xi^2/2 is lost below ~6e-8
    if np.any(bad):
        raise UnsupportedFrequencyError(
            f"b = xi*c must lie in (0, 1 - 2**-49), got {float(b[bad][0])!r} at xi="
            f"{float(xi[bad][0])!r}; lambda = b - 1 is rounding noise for |xi| < ~6e-8")
    return DispersionTable(xi=xi, c=c, b=b, a=lam / xi, lam=lam)
