import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import floatfmt


def formatted(values, seps=b",\n"):
    """floatfmt's bytes for a (rows, len(seps)) array, and b"%.17g" %'s."""
    values = np.asarray(values, dtype=float).reshape(-1, len(seps))
    got = floatfmt.join(floatfmt.cells(values, np.frombuffer(seps, np.uint8)))
    want = b"".join(b"%.17g" % v + bytes([sep])
                    for row in values.tolist() for v, sep in zip(row, seps))
    return got, want


def exponent_edges():
    """10**e and its 3 nearest neighbours on each side, e in [-8, 18]."""
    edges = []
    for e in range(-8, 19):
        below = above = 10.0 ** e
        edges.append(below)
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
    return edges


def ties():
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5: m / 2**k with m odd and m * 5**k of 18 digits."""
    rng = np.random.default_rng(0)
    out = []
    for k in range(2, 24):
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        out += [float(int(m) | 1) / 2.0**k for m in rng.integers(low, high, 20)]
    return out


@pytest.mark.parametrize("values", [
    exponent_edges(), ties(),
    [5e-324, 2.2250738585072014e-308, 0.0, -0.0, np.nan, np.inf, -np.inf,
     1.7976931348623157e308, -1.7976931348623157e308],
    [1.0, 10.0, -2.5, 0.1, 1 / 3, 1e-5, -1e-6, 1e16, 1e17, 123456789012345678.0],
], ids=["powers-of-ten", "ties", "specials", "plain"])
def test_cases_format_like_percent_17g(values):
    got, want = formatted([-v for v in values] + values)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_bit_patterns_format_like_percent_17g(bits):
    got, want = formatted(np.array(bits, dtype=np.uint64).view(np.float64), b";")
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_floats_format_like_percent_17g(values):
    got, want = formatted(values, b" ")
    assert got == want


def test_row_chunks_cover_every_row_once():
    chunks = floatfmt.row_chunks(1000, 7)
    assert chunks[0] == slice(0, floatfmt.CHUNK // 7)
    assert [i for s in chunks for i in range(1000)[s]] == list(range(1000))
    # a row wider than a chunk still goes whole
    assert floatfmt.row_chunks(3, 10 * floatfmt.CHUNK) == [
        slice(0, 1), slice(1, 2), slice(2, 3)]


def test_text_longer_than_a_cell_is_refused():
    assert floatfmt.text_cells([b"post-reframe"])[0].tobytes().rstrip(b"\0") \
        == b"post-reframe"
    with pytest.raises(ValueError, match="does not fit"):
        floatfmt.text_cells([b"x" * (floatfmt.SEP + 1)])


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_exponent_off_by_one_falls_back(monkeypatch, direction):
    # log10 a last bit off puts e one off at exact powers of ten and their
    # neighbours; the product's range checks catch it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    got, want = formatted(exponent_edges(), b"\n")
    assert got == want
