"""Every file kinrelax writes, and the bytes in it.

``write_csv`` writes "# " comment lines, the column names and rows of floats,
each value in the bytes of "%.17g" % v; ``write_json`` writes the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` of any doc, and may add a list of
point objects, each value in the bytes of ``json.dumps(v)``, the shortest decimal
that reads back as v.  Both forms come as bytes from one numpy formatter
(``_format_pass``) over one digit core, the correctly rounded 17 digits.  No
other module opens a file for writing.
"""

import functools
import json

import numpy as np

CHUNK_VALUES = 4096  # values per formatter pass, which holds about 1 MB of scratch
SMALL_VALUES = 256  # below this many CSV values one "%" costs less than a pass (about 0.2 ms)

# f"{v:.17g}" in numpy.  A finite nonzero |v| with decimal exponent X has the 17
# digits D = rint(T), T = |v| 10^s, s = 16 - X.  T is formed as p + t from a
# double-double 10^s by Dekker's exact product, within 2**-46 of the true value
# (T < 2**57), so rint(T) is correctly rounded unless frac(T) lies within 2**-40 of
# 1/2: exact decimal ties, which Python rounds half-even, fall back to Python's text
# ("%.17g" % v, or json.dumps(v) in the shortest form), as do nan and inf.  The
# shortest form keeps fewer of the digits where they still read back (``_shorten``).
# Each value is laid out in '<u8' words of its g form and the separator after it,
#   sign "0.000" d0 .  (d . ) x 16  e-ddd sep...
# with unused bytes 0, which bytes.translate drops (tables from ``_tables``); the
# shortest form's fixed layout with no fraction digits ends in ".0".  The separator
# starts at byte 45: "," or "\n" ends word 5, longer text runs on (``_layout``).
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
    return hi, t - (hi - p), a_e.astype(np.int32)  # int32: numpy ldexp has no int64 loop


@functools.cache
def _tables():
    """The lookup tables of ``_format_pass``, built with numpy at its first call, so
    an import or a write of fewer than SMALL_VALUES values builds none:
    10^s as hi, lo, e and Dekker's halves of hi; 10^(0..16); four (digit, 0) cells
    of each group 0000..9999, then again with trailing zeros 0; the words but digits
    and exponent by [-X of a "0.000" form, sign, digit p that a fixed form's point
    follows (the zeros of its digits 1..p restored), no point, "." or ".0"], and with
    "," or "\\n" (``_layout``); and word 5's exponent by [X - _X_MIN, or none]."""
    hi, lo, e = _pow10_table()
    digits, trailing, kept = 0, 0, False
    for k in range(3, -1, -1):
        c = np.arange(48, 58, dtype="<u8").reshape((10,) + (1,) * (3 - k))
        kept = kept | (c > 48)
        digits, trailing = digits | c << 16 * k, trailing | (c * kept) << 16 * k
    shape = np.zeros((5, 2, 17, 3, 48), np.uint8)
    shape[:, 1, ..., 0] = ord("-")
    shape[1:, ..., 1:3] = (ord("0"), ord("."))
    shape[..., 3:6] = (np.arange(3) < np.arange(-1, 4)[:, None, None, None, None]) * ord("0")
    c = np.arange(1, 17)  # digit cells 1-16: a digit at byte 2c + 6, a point after it at 2c + 7
    shape[..., 2 * c + 6] = (c <= np.arange(17)[:, None, None]) * ord("0")
    shape[:, :, np.arange(17), 1:, 2 * np.arange(17) + 7] = ord(".")
    shape[:, :, np.arange(16), 2, 2 * np.arange(16) + 8] = ord("0")
    x = np.arange(_X_MIN, 17 - _S_MIN)
    tail = np.zeros((len(x) + 1, 8), np.uint8)
    tail[:-1, 0] = ord("e")
    tail[:-1, 1] = ord("+") + 2 * (x < 0)  # "-" follows "+" and ","
    tail[:-1, 2] = (48 + abs(x) // 100) * (abs(x) >= 100)
    tail[:-1, 3] = 48 + abs(x) // 10 % 10
    tail[:-1, 4] = 48 + abs(x) % 10
    forms = shape.view("<u8").reshape(-1, 6)
    return ((hi, lo, e) + _split(hi), 10 ** np.arange(17),
            np.concatenate([digits.ravel(), trailing.ravel()]),
            forms, _layout(forms, (b",", b"\n")), tail.view("<u8").ravel())


def _layout(forms, seps):
    """Row j * len(forms) + f: the words of value form f (``_tables``) and from byte
    45 on the text of separator j of ``seps`` (bytes), zero-padded to whole words."""
    width = -(-(45 + max(map(len, seps))) // 8)
    text = np.frombuffer(b"".join(bytes(45) + sep.ljust(8 * width - 45, b"\0") for sep in seps),
                         "<u8").reshape(len(seps), 1, width)
    return (np.pad(forms, ((0, 0), (0, width - 6))) | text).reshape(-1, width)


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


def _divmod(n, m):
    """np.divmod(n, m) of int64s n >= 0 by numpy's fast floor division by a scalar."""
    q = n // m
    return q, n - q * m


def _shorten(d, t, a, x, zero, fallback, pow10):
    """Replace the 17 digits D (T = D + t) of each |v| = a by those of the shortest
    decimal that reads back as |v|: the multiple of 10^j nearest T for the largest
    j with one within H of T, H half the gap between the doubles at |v| in units of
    T, 2^(e - 54) 10^(16 - x) for a = m 2^e (2^-1075 10^(16 - x) for subnormals).
    No multiple of 10^j lies within H unless one of 10^(j-1) does, so j runs up over
    the values still found.  Powers of two (the gap below is half the gap above)
    and values whose nearest multiple lies within _TIE (1 + H) of the bound H, or
    of a tie with the other one, join ``fallback``."""
    hi, _, e10, _, _ = pow10
    m, e = np.frexp(a)
    fallback |= (m == 0.5) & ~zero
    i = np.flatnonzero(~(fallback | zero))
    k = 16 - x[i] - _S_MIN
    h = np.ldexp(hi.take(k), e10.take(k) + np.maximum(e[i] - 54, -1075))
    tie = _TIE * (1.0 + h)
    digits, t = d[i], t[i]
    for j in range(1, 17):
        q, rem = _divmod(digits, 10**j)
        below = rem + t  # T - q 10^j
        above = (10**j - rem) - t  # (q + 1) 10^j - T
        up = above < below
        past = np.where(up, above, below) - h  # the nearest multiple's distance past H
        found = past < 0.0
        near = (np.abs(past) < tie) | (found & (np.abs(above - below) < tie))
        fallback[i[near]] = True
        keep = np.flatnonzero(found & ~near)
        i, digits, t, h, tie = i[keep], digits[keep], t[keep], h[keep], tie[keep]
        d[i] = (q[keep] + up[keep]) * 10**j
        if not len(i):
            break


def _format_pass(values, ends, shortest=False, layout=None) -> bytes:
    """The ASCII bytes of f"{v:.17g}" of each float of 1-D ``values``, or with ``shortest``
    its ``json.dumps(v)``, each followed by separator ``ends`` (an int or one per value):
    "," for 0 and "\\n" for 1, or that separator of ``layout`` (from ``_layout``)."""
    pow10, pow10_int, digits, forms, csv_layout, tail = _tables()
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
    if shortest:
        _shorten(d, t, a, x, zero, fallback, pow10)
    carry = np.flatnonzero(d == 10**17)
    d[carry] = 10**16
    x[carry] += 1
    d[zero] = 0
    x[zero] = 0
    hi, lo = _divmod(d, 10**8)
    d0, hi = _divmod(hi, 10**8)
    q = _divmod(hi, 10**4) + _divmod(lo, 10**4)  # digit groups 1-4
    fixed = (x >= -4) & (x < 17 - shortest)  # json's fixed form ends at X = 15
    zeros = np.where(fixed & (x < 0), -x, 0)  # "0.000" form
    point = np.where(fixed, np.maximum(x, 0), 0)
    shape = ((2 * zeros + np.signbit(values)) * 17 + point) * 3
    frac = d % pow10_int.take(16 - point) != 0
    shape += frac & (zeros == 0)
    if shortest:  # a fixed form with no fraction digits ends in ".0"
        shape += 2 * (fixed & (x >= 0) & ~frac)
    shape += len(forms) * ends
    words = (csv_layout if layout is None else layout).take(shape, axis=0)
    words[:, 0] |= (d0 + 48).astype("<u8") << 48
    trailing = np.ones(len(a), bool)
    for k in range(3, -1, -1):
        words[:, k + 1] |= digits.take(q[k] + 10000 * trailing)
        trailing &= q[k] == 0
    # a fallback keeps its separator only: a fixed form's empty tail
    words[:, 5] |= tail.take(np.where(fixed | fallback, len(tail) - 1, x - _X_MIN))
    fallback = np.flatnonzero(fallback)
    words[fallback, 0] = 1
    words[fallback, 1:5] = 0
    text = words.tobytes()
    del words  # before translate allocates its output, of the same size
    text = text.translate(None, b"\0")
    if len(fallback):
        exact = json.dumps if shortest else "%.17g".__mod__
        parts = text.split(b"\1")
        text = b"".join(part for pair in zip(parts, [
            exact(v).encode() for v in values[fallback].tolist()] + [b""]) for part in pair)
    return text


def _render_rows(rows):
    """Yield the rows of a 2-D float array as lines of comma-separated
    f"{v:.17g}" values in bytes, CHUNK_VALUES values per pass; an array of fewer
    than SMALL_VALUES values goes through one "%" of a row template instead."""
    values = rows.ravel()
    if len(values) < SMALL_VALUES:
        yield ((",".join(["%.17g"] * rows.shape[1]) + "\n") * len(rows)
               % tuple(values.tolist())).encode()
        return
    ends = np.arange(1, CHUNK_VALUES + rows.shape[1]) % rows.shape[1] == 0  # from any column
    for start in range(0, len(values), CHUNK_VALUES):
        chunk = values[start:start + CHUNK_VALUES]
        yield _format_pass(chunk, ends[start % rows.shape[1]:][:len(chunk)])


def render_each(stack):
    """Yield the bytes of each 2-D array of a 3-D float stack; arrays share formatter
    passes of up to CHUNK_VALUES values, so many small files cost a few passes."""
    count, m, ncols = stack.shape
    step = max(1, CHUNK_VALUES // max(1, m * ncols))
    for start in range(0, count, step):
        lines = b"".join(_render_rows(stack[start:start + step].reshape(-1, ncols)))
        lines = lines.splitlines(keepends=True)
        for j in range(min(step, count - start)):
            yield b"".join(lines[j * m:(j + 1) * m])


def write_csv(path, comments, columns, rows) -> None:
    """Write a "# " line per comment, the column names joined by commas, then
    the rows: a 2-D float array (or a list of rows) as lines of comma-separated
    "%.17g" values, or bytes from ``render_each`` as they are."""
    with open(path, "wb") as fh:
        fh.write("".join([*(f"# {line}\n" for line in comments), ",".join(columns), "\n"]).encode())
        if isinstance(rows, bytes):
            fh.write(rows)
        else:
            fh.writelines(_render_rows(np.asarray(rows, dtype=np.float64)))


def write_json(path, doc, points=None) -> None:
    """Write the bytes of ``json.dump(doc, fh, indent=2, sort_keys=True)`` and
    "\\n", numpy scalars as floats, for any doc.  ``points`` maps keys to float
    columns of one length, as ``cli.cmd_dispersion`` passes the dispersion table's;
    row i is the object {key: column[i]} of the key "points", which doc must not
    hold.  Formatter passes of whole rows, at most CHUNK_VALUES values each, write
    the keys of each row as the separators between its values."""
    if points is None:
        with open(path, "wb") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True, default=float).encode() + b"\n")
        return
    if "points" in doc:
        raise ValueError('write_json: doc holds a key "points" of its own')
    # the doc with an empty list at "points", the one such line at indent 2
    head, _, tail = json.dumps({**doc, "points": []}, indent=2, sort_keys=True,
                               default=float).partition('\n  "points": []')
    keys = sorted(points)
    count = len(points[keys[0]])
    first = f"\n    {{\n      {json.dumps(keys[0])}: ".encode()  # opens a record
    layout = _layout(_tables()[3], [f",\n      {json.dumps(key)}: ".encode() for key in keys[1:]]
                     + [b"\n    }," + first, b"\n    }\n  ]"])
    step = max(1, CHUNK_VALUES // len(keys))
    ends = np.arange(step * len(keys)) % len(keys)  # the separators of a whole pass
    with open(path, "wb") as fh:
        fh.write(head.encode() + b'\n  "points": [' + (first if count else b"]"))
        for start in range(0, count, step):
            chunk = np.column_stack([points[k][start:start + step] for k in keys]).ravel()
            if start + step >= count:  # the last record closes the list
                ends = np.append(ends[:len(chunk) - 1], len(keys))
            fh.write(_format_pass(chunk, ends[:len(chunk)], shortest=True, layout=layout))
        fh.write(tail.encode() + b"\n")
