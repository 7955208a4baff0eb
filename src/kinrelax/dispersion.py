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

The artifact writers live here too: ``write_rows`` streams every CSV through a
numpy formatter whose bytes are those of "%.17g" % v for every value.
"""

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .quadrature import SQRT_PI, VelocityGrid, adaptive_phi_integral

BAND_EDGE = SQRT_PI
DEFAULT_XI_MIN = 1e-6
DEFAULT_EDGE_MARGIN = 1e-6
XI_RESIDUAL_TOL = 1e-11
NEWTON_STEPS = 4  # from the upper bound: within 7 c-widths of an ulp of Xi everywhere
_INF_BITS = int(np.array(np.inf).view(np.int64))

TABLE_FORMAT_VERSION = 1


CHUNK_ROWS = 256  # table JSON rows rendered per write: no artifact is held whole as text
CHUNK_VALUES = 4096  # CSV values per formatter pass, which holds about 1.2 MB of scratch
SMALL_VALUES = 256  # below this many values one "%" costs less than a pass (about 0.2 ms)
# One "points" entry of the table JSON at indent 2 with sorted keys, comma first.
_JSON_POINT = (',\n    {\n      "a": %r,\n      "b": %r,\n      "c": %r,\n'
               '      "lambda": %r,\n      "xi": %r\n    }')

# f"{v:.17g}" in numpy.  A finite nonzero |v| with decimal exponent X has the 17
# digits D = rint(T), T = |v| 10^s, s = 16 - X.  T is formed as p + t from a
# double-double 10^s by Dekker's exact product, within 2**-46 of the true value
# (T < 2**57), so rint(T) is correctly rounded unless frac(T) lies within 2**-40 of
# 1/2: exact decimal ties, which Python rounds half-even, fall back to "%.17g" % v,
# as do nan and inf.  Each value is laid out in six '<u8' words of its g form,
#   sign "0.000" d0 .  (d . ) x 16  e-ddd sep
# with unused bytes 0, which bytes.translate drops (tables from ``_tables``).
_S_MIN, _S_MAX = -292, 340  # s = 16 - X over the decimal exponents -324..308 of doubles
_X_MIN = 16 - _S_MAX
_SPLIT = 134217729.0  # 2**27 + 1
_TIE = 2.0**-40


def _split(x):
    """Dekker's split: x = hi + lo, each with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _pow10_table():
    """10^s = (hi + lo) 2^e within 2**-104 relative for s = _S_MIN.._S_MAX: the
    anchors 10^(_S_MIN + 23 j) exactly from integers (1 <= hi < 2), each times the
    exact doubles 10^r, r < 23, by Dekker's product."""
    anchors = []
    for s in range(_S_MIN, _S_MAX + 1, 23):
        num, den = 10**max(s, 0), 10**max(-s, 0)
        e = num.bit_length() - den.bit_length()
        num, den = num << max(-e, 0), den << max(e, 0)
        if num < den:
            e, num = e - 1, num << 1
        hi = num / den  # int true division rounds correctly
        anchors.append((hi, (num * 2**52 - int(hi * 2**52) * den) / (den * 2**52), e))
    s = np.arange(_S_MAX - _S_MIN + 1)
    a_hi, a_lo, a_e = np.array(anchors)[s // 23].T
    b = np.array([float(10**k) for k in range(23)])[s % 23]  # exact
    p = a_hi * b
    (ah, al), (bh, bl) = _split(a_hi), _split(b)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a_lo * b
    hi = p + t
    return hi, t - (hi - p), a_e.astype(np.int64)


@functools.cache
def _tables():
    """The lookup tables of ``_format_pass``, built with numpy at its first call, so
    an import or a write of fewer than SMALL_VALUES values builds none:
    10^s as hi, lo, e and Dekker's halves of hi; 10^(0..16); four (digit, 0) cells
    of each group 0000..9999, then again with trailing zeros 0; the words but digits
    and tail by [-X of a "0.000" form, sign, digit p that a fixed form's point
    follows (the zeros of its digits 1..p restored), point]; and word 5 by
    [X - _X_MIN, or last for fixed forms; row end]."""
    hi, lo, e = _pow10_table()
    digits, trailing, kept = 0, 0, False
    for k in range(3, -1, -1):
        c = np.arange(48, 58, dtype="<u8").reshape((10,) + (1,) * (3 - k))
        kept = kept | (c > 48)
        digits, trailing = digits | c << 16 * k, trailing | (c * kept) << 16 * k
    shape = np.zeros((5, 2, 17, 2, 48), np.uint8)
    shape[:, 1, ..., 0] = ord("-")
    shape[1:, ..., 1:3] = (ord("0"), ord("."))
    shape[..., 3:6] = (np.arange(3) < np.arange(-1, 4)[:, None, None, None, None]) * ord("0")
    c = np.arange(1, 17)  # digit cells 1-16: a digit at byte 2c + 6, a point after it at 2c + 7
    shape[..., 2 * c + 6] = (c <= np.arange(17)[:, None, None]) * ord("0")
    shape[:, :, np.arange(17), 1, 2 * np.arange(17) + 7] = ord(".")
    x = np.arange(_X_MIN, 17 - _S_MIN)[:, None]
    tail = np.zeros((len(x) + 1, 2, 8), np.uint8)
    tail[:-1, :, 0] = ord("e")
    tail[:-1, :, 1] = ord("+") + 2 * (x < 0)  # "-" follows "+" and ","
    tail[:-1, :, 2] = (48 + abs(x) // 100) * (abs(x) >= 100)
    tail[:-1, :, 3] = 48 + abs(x) // 10 % 10
    tail[:-1, :, 4] = 48 + abs(x) % 10
    tail[:, :, 5] = (ord(","), ord("\n"))
    return ((hi, lo, e) + _split(hi), 10 ** np.arange(17),
            np.concatenate([digits.ravel(), trailing.ravel()]),
            shape.view("<u8").reshape(-1, 6), tail.view("<u8").ravel())


def _scaled(a, x, pow10):
    """T = a 10^(16 - x) as p + t."""
    p_hi, p_lo, p_e, p_hh, p_hl = pow10
    i = 16 - x - _S_MIN
    m, e = np.frexp(a)
    hh, hl = p_hh.take(i), p_hl.take(i)
    mh, ml = _split(m)
    p = m * p_hi.take(i)
    t = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    t += m * p_lo.take(i)
    e += p_e.take(i)
    return np.ldexp(p, e), np.ldexp(t, e)


def _format_pass(values, ends) -> str:
    """f"{v:.17g}" of each float of 1-D ``values``, each followed by "\\n" where
    ``ends`` is true and by "," elsewhere."""
    pow10, pow10_int, digits, shapes, tail = _tables()
    a = np.abs(values)
    finite, zero = np.isfinite(a), a == 0.0
    a[~finite | zero] = 1.0
    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.int64)  # log10 within an ulp: off by at most one
    p, t = _scaled(a, x, pow10)
    low = (p < 1e16) | ((p == 1e16) & (t < 0.0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0.0))
    fix = np.flatnonzero(low | high)
    if len(fix):
        x[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], t[fix] = _scaled(a[fix], x[fix], pow10)
    r = np.rint(t)
    t -= r
    fallback = (np.abs(np.abs(t) - 0.5) < _TIE) | ~finite
    d = p.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    x[carry] += 1
    d[zero] = 0
    x[zero] = 0
    hi, lo = np.divmod(d, 10**8)
    d0, hi = np.divmod(hi, 10**8)
    q = np.divmod(hi, 10**4) + np.divmod(lo, 10**4)  # digit groups 1-4
    fixed = (x >= -4) & (x < 17)
    zeros = np.where(fixed & (x < 0), -x, 0)  # "0.000" form
    point = np.where(fixed, np.maximum(x, 0), 0)
    shape = ((2 * zeros + np.signbit(values)) * 17 + point) * 2
    shape += (d % pow10_int.take(16 - point) != 0) & (zeros == 0)
    words = np.empty((len(a), 6), "<u8")
    words[:, 0] = (d0 + 48).astype("<u8") << 48
    trailing = np.ones(len(a), bool)
    for k in range(3, -1, -1):
        words[:, k + 1] = digits.take(q[k] + 10000 * trailing)
        trailing &= q[k] == 0
    words |= shapes.take(shape, axis=0)
    # a fallback keeps its separator only: a fixed form's tail
    words[:, 5] = tail.take(2 * np.where(fixed | fallback, len(tail) // 2 - 1, x - _X_MIN) + ends)
    fallback = np.flatnonzero(fallback)
    words[fallback, 0] = 1
    words[fallback, 1:5] = 0
    text = words.tobytes().translate(None, b"\0")
    if len(fallback):
        parts = text.split(b"\1")
        text = b"".join(part for pair in zip(
            parts, [b"%.17g" % v for v in values[fallback].tolist()] + [b""]) for part in pair)
    return text.decode("ascii")


def _render_rows(rows):
    """Yield the rows of a 2-D float array as lines of comma-separated
    f"{v:.17g}" values, CHUNK_VALUES values per string; an array of fewer than
    SMALL_VALUES values goes through one "%" of a row template instead."""
    values = rows.ravel()
    if len(values) < SMALL_VALUES:
        yield (",".join(["%.17g"] * rows.shape[1]) + "\n") * len(rows) % tuple(values.tolist())
        return
    for start in range(0, len(values), CHUNK_VALUES):
        chunk = values[start:start + CHUNK_VALUES]
        yield _format_pass(chunk, np.arange(start + 1, start + len(chunk) + 1) % rows.shape[1] == 0)


def render_each(stack):
    """Yield the text of each 2-D array of a 3-D float stack; arrays share formatter
    passes of up to CHUNK_VALUES values, so many small files cost a few passes."""
    count, m, ncols = stack.shape
    step = max(1, CHUNK_VALUES // max(1, m * ncols))
    for start in range(0, count, step):
        lines = "".join(_render_rows(stack[start:start + step].reshape(-1, ncols)))
        lines = lines.splitlines(keepends=True)
        for j in range(min(step, count - start)):
            yield "".join(lines[j * m:(j + 1) * m])


def write_rows(fh, head, rows) -> None:
    """Write the ``head`` lines, then the rows: a 2-D float array (or a list of
    rows) as lines of comma-separated f"{v:.17g}" values, or text from
    ``render_each`` as it is.  The bytes are those of "%.17g" % v for every value;
    see ``_format_pass``."""
    fh.writelines(line + "\n" for line in head)
    if isinstance(rows, str):
        fh.write(rows)
    else:
        fh.writelines(_render_rows(np.asarray(rows, dtype=np.float64)))


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
    shape, xi = xi.shape, xi.ravel()
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
    tol = np.where(near, 100.0 * residual_tol, residual_tol)
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
        """Write (xi, c, b, lambda) rows at 17 significant digits after one
        ``# key=value`` line per metadata item, which must read back: no line
        break, no '=' in the key, no whitespace at either end of key or value."""
        head = [f"# kinrelax dispersion table format v{TABLE_FORMAT_VERSION}"]
        for key in sorted(self.metadata):
            k, v = f"{key}", f"{self.metadata[key]}"
            if "\n" in k + v or "\r" in k + v or "=" in k or k != k.strip() or v != v.strip():
                raise ValueError(f"metadata item {key!r} holds a line break, '=' in its key "
                                 "or whitespace at an end; its '# key=value' line would "
                                 "not read back")
            head.append(f"# {k}={v}")
        head.append("xi,c,b,lambda")
        with open(path, "w") as fh:
            write_rows(fh, head, np.column_stack([self.xi, self.c, self.b, self.lam]))

    def to_json(self, path) -> None:
        """The bytes of ``json.dump(doc, fh, indent=2, sort_keys=True)`` and "\\n"."""
        head = json.dumps({"format_version": TABLE_FORMAT_VERSION, "metadata": self.metadata},
                          indent=2, sort_keys=True)
        rows = np.column_stack([self.a, self.b, self.c, self.lam, self.xi])
        with open(path, "w") as fh:
            fh.write(head[:-2] + ',\n  "points": [')  # reopen the head's closing "\n}"
            for start in range(0, len(rows), CHUNK_ROWS):
                chunk = rows[start:start + CHUNK_ROWS]
                text = (_JSON_POINT * len(chunk)) % tuple(chunk.ravel().tolist())
                # repr is json's float form except for the non-finite values
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
                fh.write(text[1:] if start == 0 else text)  # no comma before the first
            fh.write("\n  ]\n}\n" if len(rows) else "]\n}\n")


def build_table(xi_values, *, xi_min: float = DEFAULT_XI_MIN,
                edge_margin: float = DEFAULT_EDGE_MARGIN,
                residual_tol: float = XI_RESIDUAL_TOL,
                metadata: dict | None = None) -> DispersionTable:
    """Tabulate dispersion data at the given frequencies (sorted, deduplicated)."""
    xi = np.sort(np.asarray(xi_values, dtype=float), axis=None)
    xi = xi[np.diff(xi, prepend=-np.inf) != 0.0]  # np.unique would import numpy.ma
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
