from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import floatfmt
from bittide_sim.cli import trace_csv


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


def zero_group_values():
    """Values whose 17-digit D ends in zero 4-digit groups: integers (of up
    to 17 digits, whose integer part holds zeros), dyadic fractions, short
    decimals and the occupancies a discrete trace writes."""
    rng = np.random.default_rng(1)
    ints = [float(v) for v in range(-1000, 1001)]
    ints += [10.0 ** e for e in range(17)] + [9.0 * 10.0 ** e for e in range(17)]
    digits = rng.integers(1, 10**17, 200) // 10 ** rng.integers(0, 16, 200)
    ints += [float(v) for v in digits * 10 ** rng.integers(0, 3, 200)]
    dyadic = [float(m) / 2.0 ** k for k in range(1, 21)
              for m in rng.integers(-2**20, 2**20, 20)]
    short = [float(v) / 10.0 ** k for k in range(1, 7)
             for v in rng.integers(-10**4, 10**4, 30)]
    occupancies = [9.0, 10.0, 11.0, 20.0, 19.0, 0.0, 1.0, 2.0, 1e6, 100.0]
    return ints + dyadic + short + occupancies


def test_values_with_zero_low_groups_format_like_percent_17g():
    values = zero_group_values()
    got, want = formatted([-v for v in values] + values, b"\t")
    assert got == want


FALLBACKS = [np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
             1e17, -1e17, np.nextafter(1e-6, 0.0), np.nextafter(1e-6, 1.0),
             1e-6, 0.0, -0.0, 1e300]


@pytest.mark.parametrize("cols", [7, floatfmt.CHUNK - 1, floatfmt.CHUNK + 3,
                                  2 * floatfmt.CHUNK + 5])
def test_fallbacks_at_step_and_row_boundaries_format_like_percent_17g(cols):
    # a chunk is formatted CHUNK values or one row at a time: fallback values
    # sit on both sides of every such boundary and of every row's end
    rows = max(3, 3 * floatfmt.CHUNK // cols)
    rng = np.random.default_rng(cols)
    values = rng.standard_normal(rows * cols) * 10.0 ** rng.integers(
        -5, 16, rows * cols)
    step = max(floatfmt.CHUNK, cols)
    edges = sorted({i for b in range(0, values.size + 1, step)
                    for i in (b - 1, b)}
                   | {i for b in range(0, values.size + 1, cols)
                      for i in (b - 1, b)})
    edges = [i for i in edges if 0 <= i < values.size]
    values[edges] = np.resize(FALLBACKS, len(edges))
    got, want = formatted(values, b"," * (cols - 1) + b"\n")
    assert got == want


def test_trace_csv_of_a_wide_trace_is_the_percent_17g_join():
    # a trace wider than CHUNK, with short and fallback values in it
    rng = np.random.default_rng(5)
    n, m, rows = 40, floatfmt.CHUNK + 900, 5
    omega = 1.0 + rng.standard_normal((rows, n)) * 1e-2
    correction = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(
        -7, 1, (rows, n))
    occupancy = np.round(10.0 + rng.standard_normal((rows, m)) * 3)
    occupancy[:, ::97] += rng.standard_normal((rows, m))[:, ::97]
    flat = correction.reshape(-1)
    flat[::13] = np.resize(FALLBACKS, flat[::13].size)
    times = np.arange(rows) * 0.25
    modes = ["pre-reframe", "pre-reframe", "post-reframe", "post-reframe",
             "staggered-1/2"]
    trace = SimpleNamespace(
        times=times, mode=modes, correction=correction, m=m,
        rows=lambda s: (omega[s], correction[s], occupancy[s]))
    header = ",".join(["t", "mode"] + [f"omega_{i}" for i in range(1, n + 1)]
                      + [f"c_{i}" for i in range(1, n + 1)]
                      + [f"beta_{j}" for j in range(1, m + 1)])
    lines = [header.encode()] + [
        b",".join([b"%.17g" % times[r], modes[r].encode()]
                  + [b"%.17g" % v for v in np.r_[omega[r], correction[r],
                                                  occupancy[r]].tolist()])
        for r in range(rows)]
    assert bytes(trace_csv(trace)) == b"\n".join(lines) + b"\n"
