"""Exact, vectorized `b"%.17g"`: the numbers of a trace formatted by numpy.

CPython's `%.17g` takes its slow exact path for every value, because its
float fast path covers 14 digits or fewer.  This module gives the same bytes
from whole arrays.  For the decimal exponent e = floor(log10|x|) in [-6, 16],
|x| * 10**(16 - e) is formed exactly as a double-double (10**p is exact for
p <= 22, and the Veltkamp split makes the product exact) and rounded half to
even to the 17-digit integer D.  D's digits come from a table into a
fixed-width cell; a mask chosen by e, the significant digits and the sign
zeroes the bytes the value does not use (trailing zeros, the point, the
"0.000" prefix, the `e-0X` suffix, the sign), and one `bytes.translate`
deletes the zero bytes of a whole chunk of cells.  Zeros are formatted in
the cell too.  Any other value (e outside the range, subnormals, nan, inf,
or a product that lands outside [1e16, 1e17)) is formatted by
`b"%.17g" %` itself, into its cell.
"""

import numpy as np

# A cell is six little-endian words: the sign, the "0.000" prefix, the first
# digit and a point slot; four words of four digits, each followed by a
# point slot; the "e-0X" suffix and the separator.
WIDTH = 48
SEP = 44                                # the separator's byte in a cell
_DIGITS, _SUFFIX = 6, 40
_E_MIN, _E_MAX = -6, 16
# cells formatted per step: each takes WIDTH bytes and about twenty 8-byte
# temporaries, so a chunk stays small beside the text it formats, and the
# numpy calls per chunk (about 50) cost little per value
CHUNK = 2048

_POW10 = np.cumprod(np.r_[1.0, np.full(_E_MAX - _E_MIN, 10.0)])  # exact
_SPLITTER = 134217729.0                 # 2**27 + 1, the Veltkamp split


def _split(a):
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


def _word(text: bytes, *shifted):
    """Cell words: the bytes of `text`, with each array of byte values of
    (bytes, position) set at that position."""
    word = np.uint64(int.from_bytes(text.ljust(8, b"\0"), "little"))
    for byte, at in shifted:
        word = word | np.asarray(byte, dtype=np.uint64) << np.uint64(8 * at)
    return word


_POW10_HI, _POW10_LO = _split(_POW10)
_TENS, _ONES = np.divmod(np.arange(100), 10)
_HEAD = _word(b"-0.000\0.", (np.arange(10) + ord("0"), 6))   # by first digit
_PAIR = _word(b"\0.\0.", (_TENS + ord("0"), 0), (_ONES + ord("0"), 2))
_GROUP = (_PAIR[:, None] | _PAIR[None, :] << np.uint64(32)).reshape(-1)
# trailing zeros of each 2- and 4-digit group, all its digits for a zero group
_ZEROS2 = (_ONES == 0).astype(np.uint8) + (np.arange(100) == 0)
_ZEROS4 = np.where(_ONES[None, :] + _TENS[None, :] == 0, 2 + _ZEROS2[:, None],
                   _ZEROS2[None, :]).reshape(-1).astype(np.uint8)
_TAIL = _word(b"e-0", (ord("0") - np.arange(_E_MIN, _E_MAX + 1), 3))  # by e


def _keep_table():
    """Row ((e - E_MIN) * 18 + s) * 2 + negative: the mask of the bytes a
    cell emits for decimal exponent e and s significant digits."""
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None]
    s = np.arange(18)[:, None]
    col = np.arange(WIDTH)
    fixed = e >= -4
    k = (col - _DIGITS) // 2            # the digit a digit or point slot follows
    slot = (col >= _DIGITS) & (col < _SUFFIX)
    digit = slot & ((col - _DIGITS) % 2 == 0)
    point = slot & ((col - _DIGITS) % 2 == 1) & (k == np.where(fixed, e, 0))
    by_e = ((col > 0) & (col < _DIGITS) & fixed & (e < 0) & (col < 2 - e)
            | digit & fixed & (k <= e)
            | (col >= _SUFFIX) & (col < SEP) & ~fixed
            | (col == SEP))
    keep = (by_e[:, None] | (digit & (k < s))[None]
            | point[:, None] & (s > k + 1)[None])
    keep = np.stack((keep, keep | (col == 0)), axis=2)    # the sign
    return (keep.reshape(-1, WIDTH) * np.uint8(255)).view(np.uint64)


_KEEP = _keep_table()


def cells(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The cells of a (rows, cols) float array, shape (rows, cols, WIDTH)
    uint8: cell [r, c] less its zero bytes is `b"%.17g" % values[r, c]`
    followed by the separator byte `seps[c]`.  The values are formatted
    CHUNK at a time, so a row wider than CHUNK costs only its cells."""
    rows, cols = values.shape
    x = values.reshape(-1)
    out = np.empty((x.size, WIDTH // 8), dtype=np.uint64)
    for start in range(0, x.size, CHUNK):
        _fill(out[start:start + CHUNK], x[start:start + CHUNK])
    out = out.view(np.uint8).reshape(rows, cols, WIDTH)
    out[:, :, SEP] = seps
    return out


def _round17(ax: np.ndarray, e: np.ndarray):
    """D = ax * 10**(16 - e) rounded half to even, and whether that product
    is exact and within [1e16, 1e17)."""
    p = _E_MAX - e
    hi = ax * _POW10[p]
    ah, al = _split(ax)
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    # hi >= 1e16 is an even integer, so hi + rint(lo) rounds half to even
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact = (hi > 1e16) | (hi == 1e16) & (lo >= 0)
    exact &= d < 10**17
    return d, exact


def _fill(out: np.ndarray, x: np.ndarray):
    """Write the cell words of the values x into out, less the separator."""
    ax = np.abs(x)
    inside = (ax >= 1e-6) & (ax < 1e17)
    ax[~inside] = 0.0                   # zeros, and the values left to Python
    e = np.floor(np.log10(np.where(inside, ax, 1.0))).astype(np.intp)
    np.minimum(np.maximum(e, _E_MIN, out=e), _E_MAX, out=e)
    d, exact = _round17(ax, e)
    exact &= inside
    exact |= x == 0
    fallback = np.flatnonzero(~exact)
    d[fallback] = 0

    # D = lead * 1e16 + halves[0] * 1e8 + halves[1], each half two groups
    # of 4 digits; int64 division by a constant is fast, its remainder is not
    lead, high = d // 10**16, d // 10**8
    halves = np.stack((high - lead * 10**8, d - high * 10**8))
    group_high = halves // 10**4
    group_low = halves - group_high * 10**4
    for i, group in enumerate((group_high[0], group_low[0],
                               group_high[1], group_low[1])):
        out[:, i + 1] = _GROUP.take(group)
    # trailing zeros of the last 16 digits
    zeros = np.where(group_low == 0, 4 + _ZEROS4.take(group_high),
                     _ZEROS4.take(group_low))
    zeros = np.where(halves[1] == 0, 8 + zeros[0], zeros[1])
    out[:, 0] = _HEAD[lead]
    out[:, 5] = _TAIL[e - _E_MIN]
    out &= _KEEP.take(((e - _E_MIN) * 18 + 17 - zeros) * 2 + np.signbit(x),
                      axis=0)
    if fallback.size:
        out.view(np.uint8)[fallback, :SEP] = text_cells(
            [b"%.17g" % v for v in x[fallback]])


def text_cells(texts: list) -> np.ndarray:
    """The bytes before the separator of a cell holding each text."""
    out = np.zeros((len(texts), SEP), dtype=np.uint8)
    for i, text in enumerate(texts):
        if len(text) > SEP or b"\0" in text:
            raise ValueError(f"{text!r} does not fit a cell")
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def row_chunks(rows: int, cols: int) -> list:
    """Slices of range(rows) of about CHUNK cells each, at least one row."""
    step = max(1, CHUNK // cols)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def join(cells: np.ndarray) -> bytes:
    """The bytes of `cells` with the zero bytes deleted."""
    return cells.tobytes().translate(None, b"\0")
