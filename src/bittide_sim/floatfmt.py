"""Exact, vectorized `b"%.17g"`: the numbers of a trace formatted by numpy.

CPython's `%.17g` takes its slow exact path for every value, because its
float fast path covers 14 digits or fewer.  This module gives the same bytes
from whole arrays.  For the decimal exponent e = floor(log10|x|) in [-6, 16],
|x| * 10**p with p = 16 - e is formed exactly as a double-double (10**p is
exact for p <= 22, and the Veltkamp split makes the product exact) and
rounded half to even to the 17-digit integer D.  A cell is then two gathers
and an `&`: one gathers the words of the four groups of four digits that
follow D's first digit, the other a row chosen by p, D's trailing zeros,
its first digit and the sign.  The row holds the cell's first word (the
sign, the "0.000" prefix, the first digit and a point slot) and its last
(the `e-0X` suffix), and masks the groups to the digits and the point the
value uses.  One `bytes.translate` deletes the zero bytes of a whole chunk
of cells.  Zeros are formatted in the cell too.  Any other value (e outside the range,
subnormals, nan, inf, or a product that lands outside [1e16, 1e17)) is
formatted by `b"%.17g" %` itself, into its cell.
"""

import numpy as np

# A cell is six little-endian words: the sign, the "0.000" prefix, the first
# digit and a point slot; four words of four digits, each followed by a
# point slot; the "e-0X" suffix and the separator.
WIDTH = 48
SEP = 44                                # the separator's byte in a cell
_DIGITS, _SUFFIX = 6, 40
_E_MIN, _E_MAX = -6, 16
_P_MAX = _E_MAX - _E_MIN                # p = E_MAX - e is in [0, P_MAX]
# values formatted per step, or one row where a row is wider: a step holds
# its cells and 49 more bytes per value (the words of its digit groups, its
# row numbers, a log10 and a flag), and works out the double-double and the
# digits in the cells' own memory
CHUNK = 4096

_POW10 = np.cumprod(np.r_[1.0, np.full(_P_MAX, 10.0)])  # exact
_SPLITTER = 134217729.0                 # 2**27 + 1, the Veltkamp split


def _word(text: bytes, *shifted):
    """Cell words: the bytes of `text`, with each array of byte values of
    (bytes, position) set at that position."""
    word = np.uint64(int.from_bytes(text.ljust(8, b"\0"), "little"))
    for byte, at in shifted:
        word = word | np.asarray(byte, dtype=np.uint64) << np.uint64(8 * at)
    return word


_TENS, _ONES = np.divmod(np.arange(100), 10)
_PAIR = _word(b"\0.\0.", (_TENS + ord("0"), 0), (_ONES + ord("0"), 2))
_GROUP = (_PAIR[:, None] | _PAIR[None, :] << np.uint64(32)).reshape(-1)
# the strides of p and of D's trailing zeros in a row number (see below)
_ROW_P, _ROW_Z = 17 * 10 * 2, 10 * 2
# trailing zeros of each 4-digit group, 4 for a zero group, in row strides
_ZEROS2 = (_ONES == 0).astype(np.intp) + (np.arange(100) == 0)
_ZEROS4 = np.where(np.arange(100)[None, :] == 0, 2 + _ZEROS2[:, None],
                   _ZEROS2[None, :]).reshape(-1) * _ROW_Z
_ZERO_GROUP = 4 * _ROW_Z


def _row_table():
    """Row ((p * 17 + z) * 10 + lead) * 2 + negative: for p = 16 - e, z
    trailing zeros of D's last 16 digits (s = 17 - z significant digits)
    and D's first digit, the cell's first and last words and the masks of
    its four groups of digits.  A first digit 0 is a zero's."""
    e = _E_MAX - np.arange(_P_MAX + 1)[:, None]
    s = 17 - np.arange(17)[:, None]
    col = np.arange(WIDTH)
    fixed = e >= -4
    k = (col - _DIGITS) // 2            # the digit a digit or point slot follows
    slot = (col >= _DIGITS) & (col < _SUFFIX)
    digit = slot & ((col - _DIGITS) % 2 == 0)
    point = slot & ((col - _DIGITS) % 2 == 1) & (k == np.where(fixed, e, 0))
    by_e = ((col == 0)
            | (col > 0) & (col < _DIGITS) & fixed & (e < 0) & (col < 2 - e)
            | digit & fixed & (k <= e)
            | (col >= _SUFFIX) & (col < SEP) & ~fixed)
    keep = (by_e[:, None] | (digit & (k < s))[None]
            | point[:, None] & (s > k + 1)[None])
    keep = np.repeat(keep[:, :, None], 10, axis=2)
    keep[:, :, 0] = (col == 0) | (col == _DIGITS)
    keep = (keep * np.uint8(255)).view(np.uint64)   # (p, z, lead, words)
    words = np.full((_P_MAX + 1, 1, 10, 2, WIDTH // 8), ~np.uint64(0))
    words[..., 0] = _word(b"\0" b"0.000\0.", (np.r_[0, ord("-")], 0),
                          (np.arange(10)[:, None] + ord("0"), 6))
    words[..., -1] = _word(b"e-0", (-e + ord("0"), 3))[:, :, None, None]
    return (words & keep[:, :, :, None]).reshape(-1, WIDTH // 8)


_ROWS = _row_table()

# the constants of the kernel as arrays, which numpy applies faster than
# Python numbers
_C = {name: np.array(value) for name, value in {
    "E_MIN": float(_E_MIN), "E_MAX": float(_E_MAX),
    "SPLITTER": _SPLITTER, "1e16": 1e16,
    "9e16 bits": np.float64(9e16).view(np.uint64), "1e4": 10**4,
    "1e8": 10**8, "1e16 int": 10**16, "row p": _ROW_P, "2": 2}.items()}


def cells(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The cells of a (rows, cols) float array, shape (rows, cols, WIDTH)
    uint8: cell [r, c] less its zero bytes is `b"%.17g" % values[r, c]`
    followed by the separator byte `seps[c]`.  The values are formatted
    CHUNK at a time, or a row at a time where a row is wider, with one set
    of work buffers."""
    rows, cols = values.shape
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    out = np.empty((x.size, WIDTH // 8), dtype=np.uint64)
    step = max(CHUNK, cols)
    size = min(step, x.size)
    work = (np.empty((4, size), dtype=np.uint64),
            np.empty(size, dtype=np.intp), np.empty(size, dtype=bool))
    # nan, inf and values out of range make garbage that the range test
    # sends to the fallback, and the gathers clip their indices
    with np.errstate(all="ignore"):
        for start in range(0, x.size, step):
            _fill(out[start:start + step], x[start:start + step], work)
    out = out.view(np.uint8).reshape(rows, cols, WIDTH)
    out[:, :, SEP] = seps
    return out


def _fill(out: np.ndarray, x: np.ndarray, work):
    """Write the cell words of the values x into out, less the separator.
    Until the cells are gathered, out's memory holds the double-double,
    then D and its digits, as six arrays of the n values."""
    n = x.size
    words, row, flag = work[0][:, :n], work[1][:n], work[2][:n]
    f = out.reshape(-1).view(np.float64).reshape(6, n)
    c = _C
    np.absolute(x, f[0])                                # ax
    e = np.log10(f[0])
    np.floor(e, e)
    np.clip(e, c["E_MIN"], c["E_MAX"], e)               # a nan falls back
    np.subtract(c["E_MAX"], e, e)
    np.copyto(row, e, casting="unsafe")                 # p = 16 - e
    np.take(_POW10, row, out=f[1], mode="clip")         # 10**p
    np.multiply(f[0], f[1], f[4])                       # hi
    np.multiply(f[1], c["SPLITTER"], f[2])              # 10**p split
    np.subtract(f[2], f[1], f[3])
    np.subtract(f[2], f[3], f[2])
    np.subtract(f[1], f[2], f[3])
    np.multiply(f[0], c["SPLITTER"], f[1])              # ax split
    np.subtract(f[1], f[0], f[5])
    np.subtract(f[1], f[5], f[1])
    np.subtract(f[0], f[1], f[0])
    # lo = ((ah*ph - hi) + ah*pl + al*ph) + al*pl, exactly hi's error
    np.multiply(f[1], f[2], f[5])
    np.subtract(f[5], f[4], f[5])
    np.multiply(f[1], f[3], f[1])
    np.add(f[5], f[1], f[5])
    np.multiply(f[0], f[2], f[1])
    np.add(f[5], f[1], f[5])
    np.multiply(f[0], f[3], f[1])
    np.add(f[5], f[1], f[5])
    # hi + lo in [1e16, 1e17 - 8]: (hi - 1e16) + lo is exact in sign, and
    # below 9e16 if so; as bits it is also below 9e16's when not nan
    np.subtract(f[4], c["1e16"], f[0])
    np.add(f[0], f[5], f[0])
    np.greater_equal(f[0].view(np.uint64), c["9e16 bits"], flag)
    fallback = flag.nonzero()[0]

    # D = hi + rint(lo) rounds half to even, as hi >= 1e16 is an even
    # integer.  D = lead * 1e16 + H * 1e8 + L, and each half is two groups
    # of 4 digits.  int64 division by a constant is fast, its remainder is
    # not, and so is either with a strided output.
    r = f.view(np.int64)
    np.copyto(r[0], f[4], casting="unsafe")
    np.rint(f[5], r[1], casting="unsafe")
    np.add(r[0], r[1], r[0])                            # D
    np.floor_divide(r[0], c["1e16 int"], r[1])          # lead
    np.floor_divide(r[0], c["1e8"], r[2])
    np.multiply(r[2], c["1e8"], r[3])
    np.subtract(r[0], r[3], r[3])                       # L
    np.multiply(r[1], c["1e8"], r[4])
    np.subtract(r[2], r[4], r[2])                       # H
    np.multiply(row, c["row p"], row)                   # the row of p, lead
    np.multiply(r[1], c["2"], r[1])
    np.add(row, r[1], row)
    np.floor_divide(r[2:4], c["1e4"], r[0:2])           # G0, G2
    np.multiply(r[0:2], c["1e4"], r[4:6])
    np.subtract(r[2:4], r[4:6], r[2:4])                 # G1, G3

    # trailing zeros of D's last 16 digits: of its last group G3, and where
    # that is 0, of G2, and where that is 0 too, of H = G0 G1
    zeros = r[4]
    np.take(_ZEROS4, r[3], out=zeros, mode="clip")
    np.equal(r[3], 0, flag)
    sub = flag.nonzero()[0]
    if sub.size:
        z = _ZEROS4.take(r[0:3].take(sub, axis=1))     # of G0, G2, G1
        high = z[2] + (z[2] == _ZERO_GROUP) * z[0]
        zeros.put(sub, _ZERO_GROUP + z[1] + (z[1] == _ZERO_GROUP) * high)
    np.add(row, zeros, row)                             # and z, and the sign
    np.signbit(x, flag)
    np.add(row, flag, row)

    np.take(_GROUP, r[0:4], out=words, mode="clip")     # G0, G2, G1, G3
    np.take(_ROWS, row, axis=0, out=out, mode="clip")
    np.bitwise_and(out[:, 1:4:2].T, words[0:2], out[:, 1:4:2].T)
    np.bitwise_and(out[:, 2:5:2].T, words[2:4], out[:, 2:5:2].T)
    if fallback.size:
        fallback = fallback[x[fallback] != 0]          # zeros are done
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
