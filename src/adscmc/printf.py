"""Rows of numpy blocks written byte for byte as printf would write them.

write_rows writes each row of a block through a format such as
"v %.17g %.17g %.17g\n" or "f %d %d %d\n" with no per-value Python
call.  A double-double product gives each float its 17 correctly rounded
digits, digit tables turn them into characters, and one compress of a
block's characters by per-character keep flags gives the block's bytes.
The few values the product cannot decide, near-ties and exponents
outside K_MIN..K_MAX, are spelled by "%.17g" % x itself into the same
characters.
"""

import functools

import numpy as np

# Dekker's splitter (Numer. Math. 18, 1971): c = SPLIT * x, hi = c - (c - x)
# leaves two 26-bit halves whose products are exact in float64
SPLIT = 2.0 ** 27 + 1
# the double-double product is within 2**-47 of x * 10**(16 - k); a
# fractional part this close to 1/2 cannot decide the 17th digit
TIE_MARGIN = 2.0 ** -30
# decimal exponents k of the digit kernel: for k up to two beyond either
# end, SPLIT * |x| and SPLIT * 10**(16 - k) stay finite and the low word
# of 10**(16 - k) stays normal; the tables start at k = K_MIN - 2
K_MIN, K_MAX = -280, 290
_E16, _E17 = 10 ** 16, 10 ** 17

# One float's field of 48 characters: a sign and "0.000", the 17 digits
# each followed by a candidate point, "e+-", one unused character and a
# four-digit exponent.  Keep flags pick the "%.17g" spelling out of it.
_FLOAT_FIELD = b"-0.000" + b"0." * 17 + b"e+-\0" + b"0000"
# keep rows run over significant digit counts 1..17 within each layout,
# layouts within each sign: fixed notation at exponents -4..16, then
# exponent notation, 17, -5, 100 and -100 standing for two or three
# exponent digits of either sign
_LAYOUTS = (*range(-4, 17), 17, -5, 100, -100)
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _keep_row(neg, x, nd):
    """The characters of _FLOAT_FIELD that spell a float of sign neg,
    decimal exponent x and nd significant digits."""
    keep = np.zeros(len(_FLOAT_FIELD), dtype=bool)
    keep[0] = neg
    fixed = -4 <= x < 17
    shown = max(nd, x + 1) if fixed else nd
    keep[6:6 + 2 * shown:2] = True
    if fixed and x < 0:
        keep[1:3] = True
        keep[3:2 - x] = True
    elif shown > (x + 1 if fixed else 1):
        keep[7 + 2 * (x if fixed else 0)] = True
    if not fixed:
        keep[40] = True
        keep[42 if x < 0 else 41] = True
        keep[(45 if abs(x) >= 100 else 46):] = True
    return keep


def _powers(ks):
    """The double-double 10**(16 - k) for each k of ks, as hi, hi's two
    halves and lo."""
    pairs = []
    for k in ks.tolist():
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den                       # int true division rounds correctly
        hn, hd = hi.as_integer_ratio()
        pairs.append((hi, (num * hd - hn * den) / (den * hd)))
    hi, lo = np.array(pairs).T
    c = SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo


def _digit_tables():
    """For 0..9999: four digits as characters, the same digits each
    followed by a point, and their trailing zeros."""
    digits = np.arange(10 ** 4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    dotted = np.full((10 ** 4, 8), ord("."), np.uint8)
    dotted[:, ::2] = chars
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    return chars.view(np.uint32).ravel(), dotted.view(np.uint64).ravel(), zeros.astype(np.uint8)


# tables over k = K_MIN - 2 .. K_MAX + 2, and over four-digit groups; the
# module is imported when a file is first written
_KS = np.arange(K_MIN - 2, K_MAX + 3)
_POWERS = _powers(_KS)
_QUADS, _DOTTED, _ZEROS = _digit_tables()
_EXPONENT = _QUADS[np.abs(_KS)]
# the first keep row of each k's layout
_LAYOUT_ROW = 17 * np.where((_KS >= -4) & (_KS < 17), _KS + 4,
                            len(_LAYOUTS) - 4 + (_KS < 0) + 2 * (np.abs(_KS) >= 100))
_FLOAT_KEEP = np.array([_keep_row(neg, x, nd) for neg in (False, True) for x in _LAYOUTS
                        for nd in range(1, 18)])


def _columns(field, keep, after):
    """Character template (c, w) and keep table (c * len(keep), w) of a
    field followed by the text after it in each of the c = len(after)
    columns of a row; w is rounded up to whole 8-byte words."""
    width = len(field)
    w = -(-(width + max(map(len, after))) // 8) * 8
    chars = np.zeros((len(after), w), np.uint8)
    shown = np.zeros((len(after), len(keep), w), dtype=bool)
    chars[:, :width] = np.frombuffer(field, np.uint8)
    shown[:, :, :width] = keep
    for i, text in enumerate(after):
        chars[i, width:width + len(text)] = np.frombuffer(text.encode(), np.uint8)
        shown[i, :, width:width + len(text)] = True
    chars.flags.writeable = shown.flags.writeable = False
    return chars, shown.reshape(-1, w)


@functools.cache
def _float_columns(after):
    return _columns(_FLOAT_FIELD, _FLOAT_KEEP, after)


@functools.cache
def _int_columns(groups, after):
    width = 4 * groups
    return _columns(b"0" * width, np.arange(width) >= width - np.arange(1, width + 1)[:, None],
                    after)


def _scaled(a, k):
    """Integer and fractional parts of a * 10**(16 - k), to within 2**-47."""
    hi, hh, hl, lo = (t[k - (K_MIN - 2)] for t in _POWERS)
    p = a * hi
    c = SPLIT * a
    ah = c - (c - a)
    al = a - ah
    # p + e is a * hi exactly (Dekker); the low word's share joins e
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    s = p + t
    b = s - p
    r = (p - (s - b)) + (t - b)              # s + r = p + t exactly
    whole = np.floor(r)
    return s.astype(np.int64) + whole.astype(np.int64), r - whole


def _float_chars(x, after):
    """Characters and keep flags (len(x), w) of the floats x, taken in
    turn as the columns of after: the kept characters of a row spell
    "%.17g" % x of its value followed by its column's text.

    The 17 digits come from a double-double product; exponents outside
    K_MIN..K_MAX (subnormals among them) and near-ties are spelled by
    "%.17g" % x itself into the same rows (_spell).
    """
    template, keep_table = _float_columns(after)
    x = np.asarray(x, dtype=np.float64)
    n, (c, w) = len(x), template.shape
    a = np.abs(x)
    fast = (a >= 10.0 ** K_MIN) & (a < 10.0 ** (K_MAX + 1))
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, k)
    # log10 can miss by one next to a power of ten; the truncated digits
    # then have 16 or 18 places, and one more product settles k
    miss = np.flatnonzero((d < _E16) | (d >= _E17))
    if miss.size:
        k[miss] += np.where(d[miss] < _E16, -1, 1)
        d[miss], frac[miss] = _scaled(a[miss], k[miss])
    fast &= (d >= _E16) & (d < _E17) & (np.abs(frac - 0.5) > TIE_MARGIN)
    d += frac > 0.5
    carry = d == _E17
    d[carry] = _E16
    # 1.0 stood in for a zero: its one digit 0 at k = 0 spells "0" or "-0"
    d[zero] = 0
    fast |= zero
    k += carry - (K_MIN - 2)                 # now a row of the k tables

    lead = d // _E16
    halves = np.empty((n, 2), np.int64)
    halves[:, 0] = (d - lead * _E16) // 10 ** 8
    halves[:, 1] = d % 10 ** 8
    g = np.empty((n, 2, 2), np.int64)        # digits 1-4, 5-8, 9-12, 13-16
    g[:, :, 0] = halves // 10 ** 4
    g[:, :, 1] = halves - g[:, :, 0] * 10 ** 4
    g = g.reshape(n, 4)
    tz = _ZEROS[g[:, 3]] + (g[:, 3] == 0) * (_ZEROS[g[:, 2]] + (g[:, 2] == 0) * (
        _ZEROS[g[:, 1]] + (g[:, 1] == 0) * _ZEROS[g[:, 0]]))
    chars = np.empty((n, w), np.uint8)
    chars.reshape(-1, c, w)[:] = template
    chars[:, 6] = lead + ord("0")
    chars.view(np.uint64)[:, 1:5] = _DOTTED[g]
    chars.view(np.uint32)[:, 11] = _EXPONENT[k]
    # keep rows by column, sign, layout and significant digits (17 - tz)
    key = _LAYOUT_ROW[k] + np.signbit(x) * (len(_LAYOUTS) * 17) + 16 - tz
    key.reshape(-1, c)[:] += np.arange(c) * (2 * len(_LAYOUTS) * 17)
    keep = np.take(keep_table, key, axis=0)
    _spell(x, np.flatnonzero(~fast), chars, keep, len(_FLOAT_FIELD))
    return chars, keep


def _spell(x, rows, chars, keep, width):
    """Write "%.17g" % x of the given rows into their fields."""
    for i in rows:
        text = np.frombuffer(b"%.17g" % x[i], np.uint8)
        chars[i, :len(text)] = text
        keep[i, :width] = False
        keep[i, :len(text)] = True


def _int_chars(v, after):
    """Characters and keep flags (len(v), w) of the non-negative integers
    v, taken in turn as the columns of after: the kept characters of a
    row spell "%d" % v of its value followed by its column's text."""
    if v.size and v.min() < 0:
        raise ValueError(f"integer rows must be non-negative, found {v.min()}")
    nd = np.searchsorted(_POW10, v, side="right")    # digits - 1
    groups = int(nd.max()) // 4 + 1
    template, keep_table = _int_columns(groups, after)
    c, w = template.shape
    chars = np.empty((len(v), w), np.uint8)
    chars.reshape(-1, c, w)[:] = template
    words = chars.view(np.uint32)
    for col in reversed(range(groups)):
        q = v // 10 ** 4
        words[:, col] = _QUADS[v - q * 10 ** 4]
        v = q
    nd.reshape(-1, c)[:] += np.arange(c) * 4 * groups
    return chars, np.take(keep_table, nd, axis=0)


def write_rows(fh, rowfmt, blocks, sep=""):
    """Write the rows of each 2-D block through rowfmt to the binary file
    fh, every row joined by sep.

    rowfmt holds one conversion per column, all "%.17g" (float blocks) or
    all "%d" (non-negative integer blocks), and the bytes written are
    those of sep.join(rowfmt % tuple(row) for row in rows).  Each value
    is spelled into a row of characters with keep flags, followed by its
    column's text, and one compress of the block's characters by their
    flags gives the block's bytes.
    """
    spec = "%d" if "%d" in rowfmt else "%.17g"
    spell = _int_chars if spec == "%d" else _float_chars
    prefix, *after = rowfmt.split(spec)
    # the text between two rows ends each row's last column; the last row
    # of the file leaves it unwritten
    gap = sep + prefix
    after = (*after[:-1], after[-1] + gap)
    lead = prefix
    for block in blocks:
        chars, keep = spell(block.ravel(), after)
        body = np.compress(keep.ravel(), chars.ravel())
        fh.write(lead.encode())
        fh.write(body[:body.size - len(gap)])
        lead = gap
