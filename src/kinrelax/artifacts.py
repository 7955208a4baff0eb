"""Every file kinrelax writes, and the bytes in it.

``write_csv`` writes "# " comment lines, the column names and rows of floats,
each value in the bytes of "%.17g" % v but formatted in numpy (``_format_pass``);
``write_json`` writes the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
and streams a list of point objects.  No other module opens a file for
writing.
"""

import functools
import json

import numpy as np

CHUNK_ROWS = 256  # JSON points rendered per write: no artifact is held whole as text
CHUNK_VALUES = 4096  # CSV values per formatter pass, which holds about 1.2 MB of scratch
SMALL_VALUES = 256  # below this many values one "%" costs less than a pass (about 0.2 ms)

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


def write_csv(path, comments, columns, rows) -> None:
    """Write a "# " line per comment, the column names joined by commas, then
    the rows: a 2-D float array (or a list of rows) as lines of comma-separated
    "%.17g" values, or text from ``render_each`` as it is."""
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(columns) + "\n")
        if isinstance(rows, str):
            fh.write(rows)
        else:
            fh.writelines(_render_rows(np.asarray(rows, dtype=np.float64)))


def write_json(path, doc, points=None) -> None:
    """Write the bytes of ``json.dump(doc, fh, indent=2, sort_keys=True)`` and
    "\\n", numpy scalars as floats.  ``points`` maps keys to float columns of one
    length, as ``cli.cmd_dispersion`` passes the dispersion table's; row i is the
    object {key: column[i]} of a last key "points", written CHUNK_ROWS rows per
    "%" of one template of the sorted keys; doc holds a key, and each sorts before it."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=float)
    with open(path, "w") as fh:
        if points is None:
            fh.write(text + "\n")
            return
        keys = sorted(points)
        rows = np.column_stack([points[k] for k in keys])
        fields = ",\n".join(f"      {json.dumps(k)}: %r" for k in keys)
        entry = ",\n    {\n" + fields + "\n    }"  # one point at indent 2, comma first
        fh.write(text[:-2] + ',\n  "points": [')  # reopen the doc's closing "\n}"
        for start in range(0, len(rows), CHUNK_ROWS):
            chunk = rows[start:start + CHUNK_ROWS]
            text = (entry * len(chunk)) % tuple(chunk.ravel().tolist())
            # repr is json's float form except for the non-finite values
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
            fh.write(text[1:] if start == 0 else text)  # no comma before the first
        fh.write("\n  ]\n}\n" if len(rows) else "]\n}\n")
