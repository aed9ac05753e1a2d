#!/usr/bin/env python3
"""Compare two `trace.csv` files, or the `trace.csv` files of two folders.

    python3 scripts/trace_diff.py old/trace.csv new/trace.csv
    python3 scripts/trace_diff.py old_out/ new_out/

Two folders pair their `trace.csv` files, at any depth, by the path
relative to each folder; a file that only one folder has is reported as
unpaired.  Each file is read by `bittide_sim.cli.read_trace_csv`.  For each
pair one line gives whether the rows (their count) and the mode columns
match, the largest absolute difference in the t, omega, c and beta columns
over the rows both have, and the first row (0 is the first after the
header) where a cell or the mode differs.  Two NaN cells count as equal.

The exit code is 1 when some pair's rows or modes differ, or some file is
unpaired, and 0 otherwise: values that moved are reported, not failed.  A
file that cannot be read as a trace ends it with an `error:` line and exit
code 2.  The package is imported from `src/` of the checkout the script sits
in.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bittide_sim.cli import TraceError, read_trace_csv  # noqa: E402

COLUMNS = ("t", "omega", "c", "beta")


def pairs(a: Path, b: Path):
    """(name, path under a or None, path under b or None) of each pair."""
    if not (a.is_dir() and b.is_dir()):
        yield f"{a} vs {b}", a, b
        return
    left = {p.relative_to(a): p for p in a.rglob("trace.csv")}
    right = {p.relative_to(b): p for p in b.rglob("trace.csv")}
    for rel in sorted(left.keys() | right.keys()):
        yield str(rel), left.get(rel), right.get(rel)


def _gap(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| per cell: 0 where both are equal or NaN, inf where one is
    NaN."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
    gap[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    gap[np.isnan(gap)] = np.inf
    return gap


def compare(a: Path, b: Path) -> tuple[str, bool]:
    """(the report line of one pair, whether its rows or modes differ)."""
    (ta, modes_a, *cols_a), (tb, modes_b, *cols_b) = (read_trace_csv(a),
                                                      read_trace_csv(b))
    cols_a, cols_b = [ta[:, None], *cols_a], [tb[:, None], *cols_b]
    if any(x.shape[1] != y.shape[1] for x, y in zip(cols_a, cols_b)):
        return "columns differ", True
    rows = min(len(ta), len(tb))
    same_rows = len(ta) == len(tb)
    same_modes = same_rows and modes_a == modes_b
    bad = np.array([x != y for x, y in zip(modes_a, modes_b)], dtype=bool)
    largest = []
    for name, x, y in zip(COLUMNS, cols_a, cols_b):
        gap = _gap(x[:rows], y[:rows])
        largest.append(f"{name} {gap.max() if gap.size else 0.0:.3g}")
        bad |= (gap > 0).any(axis=1)
    first = np.flatnonzero(bad)
    if first.size:
        where = f"{first[0]} (t = {ta[first[0]]:.17g})"
    else:
        # a longer trace differs on the first row the shorter lacks
        where = "none" if same_rows else f"{rows}"
    line = (f"rows {'match' if same_rows else f'{len(ta)} vs {len(tb)}'}, "
            f"modes {'match' if same_modes else 'differ'}; largest "
            f"|difference|: {', '.join(largest)}; first differing row: "
            f"{where}")
    return line, not (same_rows and same_modes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="a trace.csv file or a folder")
    parser.add_argument("b", type=Path, help="a trace.csv file or a folder")
    args = parser.parse_args(argv)
    if args.a.is_dir() != args.b.is_dir():
        parser.error("give two files or two folders")
    differs = False
    for name, a, b in pairs(args.a, args.b):
        if a is None or b is None:
            line, bad = f"only in {args.a if b is None else args.b}", True
        else:
            try:
                line, bad = compare(a, b)
            except (TraceError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        differs |= bad
        print(f"{name}: {line}")
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
