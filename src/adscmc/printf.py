"""Rows of numpy blocks written byte for byte as printf would write them,
and read back as json would read them.

write_rows writes each row of a block through a format such as
"v %.17g %.17g %.17g\n" or "f %d %d %d\n" with no per-value Python
call.  A double-double product gives each float its 17 correctly rounded
digits, digit tables turn them into characters, and one compress of a
block's characters by per-character keep flags gives the block's bytes.
The few values the product cannot decide, near-ties and exponents
outside K_MIN..K_MAX, are spelled by "%.17g" % x itself into the same
characters.

read_rows inverts it for a compact JSON array of number rows, the
vertices of a grid file: commas cut the span into tokens, the digits of
each token are read eight at a time from little-endian words, and the
integer they form times the same double-double power of ten (_POWERS,
10**e in row 16 - e) is rounded once, as Clinger and Lemire read
decimals.  Tokens within READ_TIE_MARGIN of a tie, tokens in exponent
notation (which the writer uses only below 1e-4 and from 1e17 on) and
tokens of more than 24 characters are read by json, joined into one
array, once they hold only number characters; a span that is not such
an array is declined, for json to read.
"""

import functools
import json

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


def _times_power(a, row):
    """a * 10**(16 - k) as an unevaluated sum p + t, to within about
    2**-104 of its size, for the rows k - (K_MIN - 2) of the k tables."""
    hi, hh, hl, lo = (t.take(row) for t in _POWERS)
    p = a * hi
    c = SPLIT * a
    ah = c - (c - a)
    al = a - ah
    # p + e is a * hi exactly (Dekker); the low word's share joins e
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo


def _scaled(a, k):
    """Integer and fractional parts of a * 10**(16 - k), to within 2**-47."""
    p, t = _times_power(a, k - (K_MIN - 2))
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


# Reading: each number of a span is read from the 24 bytes that end where
# its digits end, taken as three little-endian words, the first character
# in the low byte of the first word.  A span starting within READ_PAD bytes
# of its buffer is declined, so that every such window lies inside it.
READ_PAD = 24
# span bytes per block, whose words stay in cache between passes: on a
# 301 x 301 grid file 128 KiB read within 4% of 256 KiB and 32 KiB read
# 48% slower
_READ_BLOCK = 1 << 17
# a fraction this close to 1/2 of the last place cannot decide the
# rounding; the product is within 2**-100 of the value
READ_TIE_MARGIN = 2.0 ** -20


def _every_byte(b):
    return np.uint64(int.from_bytes(bytes([b]) * 8, "little"))


_CHAR_ZEROS, _CHAR_POINTS = _every_byte(ord("0")), _every_byte(ord("."))
_LOW7, _HIGH = _every_byte(0x7F), _every_byte(0x80)
# a digit value above 9 plus 0x76 reaches the high bit of its byte
_ABOVE_NINE = _every_byte(0x76)
# column j: the first j bytes of the window, j = 0..24
_FIRST = np.array([np.frombuffer(b"\xff" * j + bytes(24 - j), np.uint64)
                   for j in range(25)]).T.copy()
# a point flag 1 at byte i of word j times row j, shifted down 56 bits,
# is 8 j + i + 1, the point's place in the window counted from 1
_POINT_PLACE = np.array([[int.from_bytes(bytes(8 * j + 8 - i for i in range(8)), "little")]
                         for j in range(3)], np.uint64)


def _eight_digits(w):
    """The eight-digit numbers of words w whose bytes are digit values
    0..9, first digit most significant (the SWAR multiply-shift)."""
    w *= np.uint64(10 * 256 + 1)
    w >>= np.uint64(8)
    w &= np.uint64(0x00FF00FF00FF00FF)
    w *= np.uint64(100 * 2 ** 16 + 1)
    w >>= np.uint64(16)
    w &= np.uint64(0x0000FFFF0000FFFF)
    w *= np.uint64(10000 * 2 ** 32 + 1)
    w >>= np.uint64(32)
    return w


def _mantissas(windows, start, end):
    """The digits of buf[start:end], at most one point among them, as the
    integer M, the counts of digits after and before the point, and a
    flag for each token they do not read.

    The window bytes before start become "0".  A point is deleted by
    shifting the bytes below it up by one, and the 24 remaining
    characters are three eight-digit groups.  Flagged: more than 24
    characters, a byte that is no digit, no digit before or after the
    point, and M of 18 digits with a leading group of 90 or more, which
    int64 cannot hold.
    """
    n = end - start
    w = windows[end - 24].view(np.uint64).reshape(-1, 3).T.copy()
    w ^= (w ^ _CHAR_ZEROS) & _FIRST.take(24 - np.minimum(n, 24), axis=1)
    bad = w & _HIGH
    # 0x80 at the points; a byte above 0x7F, which may carry into the
    # next byte, is flagged bad itself
    flags = w ^ _CHAR_POINTS
    flags += _LOW7
    np.invert(flags, out=flags)
    flags &= _HIGH
    flags >>= np.uint64(7)
    flags *= _POINT_PLACE
    flags >>= np.uint64(56)
    place = (flags[0] + flags[1] + flags[2]).view(np.int64)
    shifted = w << np.uint64(8)
    shifted[1:] |= w[:-1] >> np.uint64(56)
    shifted[0] |= np.uint64(ord("0"))
    shifted ^= w
    shifted &= _FIRST.take(np.minimum(place, 24), axis=1)    # up to the point
    w ^= shifted
    w -= _CHAR_ZEROS
    bad |= w
    bad |= w + _ABOVE_NINE
    bad &= _HIGH
    bad = (bad[0] | bad[1] | bad[2]) != 0
    has_point = place != 0
    after = (24 - place) * has_point
    before = n - has_point - after
    bad |= (n > 24) | (before < 1) | (has_point & (after < 1))
    c = _eight_digits(w)
    bad |= c[0] >= 90
    m = c[0] * np.uint64(10 ** 16)
    m += c[1] * np.uint64(10 ** 8)
    m += c[2]
    return m.view(np.int64), after, before, bad


def _values(m, after):
    """The float64 nearest m * 10**-after and a flag for each one that is
    decided, not within READ_TIE_MARGIN of a tie (m = 0 always is).  For
    m < 10**18 and after <= 23 the value is a normal float, and 10**-after
    lies in the power table."""
    with np.errstate(over="ignore", invalid="ignore"):
        mh = m.astype(np.float64)
        ml = (m - mh.astype(np.int64)).astype(np.float64)    # m = mh + ml exactly
        row = after + (16 - (K_MIN - 2))
        p, t = _times_power(mh, row)
        t += ml * _POWERS[0].take(row)
        x = p + t
        b = x - p
        r = (p - (x - b)) + (t - b)          # x + r = p + t exactly
        # the gap below x; above it the gap is the same or twice as wide
        gap = x - (x.view(np.int64) - 1).view(np.float64)
        ok = np.abs(r) < (0.5 - READ_TIE_MARGIN) * gap
    zero = m == 0
    x[zero] = 0.0
    return x, ok | zero


def _token_values(a, windows, start, end):
    """The values of the number tokens buf[start:end] and a flag for each
    one decided here; the rest, those with an exponent among them, go to
    _float_tokens."""
    neg = a[start] == ord("-")
    digits = start + neg
    m, after, before, bad = _mantissas(windows, digits, end)
    bad |= (before > 1) & (a[digits] == ord("0"))
    value, ok = _values(m, after)
    np.negative(value, out=value, where=neg)
    return value, ok & ~bad


def _int_token(token):
    """The float of an integer token of at most 18 digits, else NaN."""
    return float(token) if len(token.lstrip("-")) <= 18 else np.nan


def _float_tokens(buf, start, end, rows, out):
    """Read the tokens buf[start:end] of the given rows into out, joined
    into one array that json parses; False when one is not a JSON number,
    is an integer of more than 18 digits (which json would keep as an int
    beyond int64) or is not finite."""
    text = b",".join([buf[s:e] for s, e in zip(start[rows].tolist(), end[rows].tolist())])
    # json would also take names, strings, arrays and whitespace
    if text.translate(None, b"0123456789.eE+-,"):
        return False
    try:
        out[rows] = json.loads(b"[" + text + b"]", parse_int=_int_token)
    except ValueError:
        return False
    return bool(np.isfinite(out[rows]).all())


def read_rows(buf, lo, hi):
    """The rows of the JSON array buf[lo:hi] of equally long rows of
    numbers, as a float64 array of the values json reads, or None.

    buf is bytes or bytearray; a span starting within READ_PAD bytes of
    it is declined.  The span must be compact, "[[" row "],[" row .. "]]",
    with numbers separated by single commas.  None when it is not, or
    when a number is no JSON number, is an integer of more than 18
    digits or is not finite.  A "-0" reads as -0.0.

    The span is cut at its commas in blocks of _READ_BLOCK bytes.  Each
    token is read from three words (_mantissas) and scaled by a
    double-double power of ten (_values); the few that this does not
    decide, exponent notation among them, are read by json
    (_float_tokens).
    """
    a = np.frombuffer(buf, np.uint8)
    if hi - lo < 4 or lo < READ_PAD or buf[lo] != ord("[") or buf[hi - 1] != ord("]"):
        return None
    # the columns are the commas of the first row plus one
    k = buf.count(b",", lo, buf.find(b"]", lo + 1, hi)) + 1
    total = 1 + sum(int(np.count_nonzero(a[b:min(b + _READ_BLOCK, hi)] == ord(",")))
                    for b in range(lo, hi, _READ_BLOCK))
    if total % k:
        return None
    windows = np.ndarray((len(buf) - 23,), np.dtype((np.void, 24)), buf, strides=(1,))
    out = np.empty(total)
    done, comma = 0, lo
    for b0 in range(lo + 1, hi - 1, _READ_BLOCK):
        b1 = min(b0 + _READ_BLOCK, hi - 1)
        end = np.flatnonzero(a[b0:b1] == ord(","))
        end += b0
        if b1 == hi - 1:
            end = np.append(end, b1)
        if not end.size:
            continue
        start = np.empty_like(end)
        start[0] = comma + 1
        np.add(end[:-1], 1, out=start[1:])
        comma = end[-1]
        # each row's first token starts with "[" and its last ends with "]"
        first, last = -done % k, (k - 1 - done) % k
        if not ((a[start[first::k]] == ord("[")).all() and (a[end[last::k] - 1] == ord("]")).all()):
            return None
        start[first::k] += 1
        end[last::k] -= 1
        if (end <= start).any():
            return None
        n = len(end)
        value, ok = _token_values(a, windows, start, end)
        out[done:done + n] = value
        rest = np.flatnonzero(~ok)
        if rest.size and not _float_tokens(buf, start, end, rest, out[done:done + n]):
            return None
        done += n
    return out.reshape(-1, k)
