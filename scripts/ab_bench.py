#!/usr/bin/env python3
"""A/B the benchmark: a base revision against the working tree.

    python3 scripts/ab_bench.py --base HEAD --workload discrete-fixed --pairs 10
    python3 scripts/ab_bench.py --base HEAD --workload battery \
        --workload discrete-auto --pairs 10
    python3 scripts/ab_bench.py --base HEAD --workload discrete-fixed \
        --seed 11

Exports the base revision with `git archive`, and the working tree's files
(tracked and untracked, less the ignored ones), into two sibling temporary
directories whose paths have the same length: the one-pass `peak_rss_mb` of
a small workload moves by a few tenths of a MB with the path length alone.
Each pair runs `perfbench/run.py --workload W --seed N --seconds 25 --trace 0`
once in each tree for every named workload W, in the order named, the base
first in odd pairs and the working tree first in even ones, so that a drift
of the host's speed falls on both sides.  N is `--seed`, 7 unless given:
another seed checks a claim on inputs it was not made on.  It then prints
one block per workload: for each end-to-end metric of BENCHMARK.json, the
base's and the change's medians, the base's quartiles, and in how many
pairs the change did better (in the metric's own direction).  A last block
gives each workload's and metric's verdict by the metric's `bound` in
BENCHMARK.json, which it reads and never writes:

- "unresolved" when either side's quartile spread (the distance between
  its quartiles over its median) is wider than the bound, unless every
  run of the change is better than every run of the base;
- "regression" when the change's median is worse than the base's by more
  than the bound, relative to the base's median;
- "claim holds" when the change did better in at least 9 of every 10
  pairs and its median is better than the base's by more than the
  distance between the base's quartiles;
- "within bound" otherwise.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result(stdout: str) -> dict:
    """{metric: value} from the JSON line that ends a perfbench/run.py
    report."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return {name: metric["value"]
                    for name, metric in json.loads(line)["metrics"].items()}
    raise ValueError("no result line in the benchmark's output")


def quartiles(values: list) -> tuple[float, float]:
    """The first and third quartiles of `values`; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list) -> float:
    """The distance between the quartiles of `values` over their median."""
    q1, q3 = quartiles(values)
    median = abs(statistics.median(values))
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / median


def verdict(b: list, c: list, better: str, bound: float) -> str:
    """One metric's verdict over the pairs' values b (the base's) and c
    (the change's), b[i] paired with c[i]."""
    sign = 1 if better == "higher" else -1
    apart = min(sign * y for y in c) > max(sign * x for x in b)
    if max(spread(b), spread(c)) > bound and not apart:
        return "unresolved"
    base, change = statistics.median(b), statistics.median(c)
    gain = sign * (change - base)
    if -gain > bound * abs(base):
        return "regression"
    wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
    q1, q3 = quartiles(b)
    if 10 * wins >= 9 * len(b) and gain > q3 - q1:
        return "claim holds"
    return "within bound"


def verdicts(results: dict, metrics: dict) -> list:
    """One line per workload and metric of `results` (as `report` takes
    them) that `metrics`, BENCHMARK.json's end-to-end entries by name,
    bounds."""
    lines = []
    for workload, (base, change) in results.items():
        for name in base[0]:
            if name in metrics:
                b = [r[name] for r in base]
                c = [r[name] for r in change]
                lines.append(f"{workload} {name}: " + verdict(
                    b, c, metrics[name]["better"], metrics[name]["bound"]))
    return lines


def summary(base: list, change: list, better: dict) -> list:
    """One line per metric of the pairs' results (lists of {metric:
    value}, base[i] paired with change[i]); `better` maps a metric to
    "lower" or "higher"."""
    lines = []
    for name in base[0]:
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        q1, q3 = quartiles(b)
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        lines.append(f"{name:<12} base {statistics.median(b):.6g} "
                     f"(quartiles {q1:.6g} / {q3:.6g}), change "
                     f"{statistics.median(c):.6g}, change better in {wins} "
                     f"of {len(b)}")
    return lines


def report(base_rev: str, results: dict, better: dict) -> list:
    """The summary blocks, one per workload and a blank line between two:
    `results` maps each workload to its base's and its change's lists of
    pair results."""
    lines = []
    for workload, (base, change) in results.items():
        if lines:
            lines.append("")
        lines.append(f"{workload}: base {base_rev} against the working tree, "
                     f"{len(base)} pairs")
        lines += summary(base, change, better)
    return lines


def trees(tmp: Path) -> tuple[Path, Path]:
    """The base's and the working tree's directories in `tmp`: siblings whose
    paths have the same length."""
    return tmp / "base", tmp / "work"


def export(rev: str, into: Path):
    """The tree of `rev` written into `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def export_working_tree(into: Path):
    """The working tree's files, tracked and untracked but not ignored,
    copied into `into`; a tracked file deleted from the tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT,
                            capture_output=True, check=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def command(workload: str, seed: int) -> list:
    """The argv of one benchmark run, from the root of a tree."""
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "25", "--trace", "0"]


def run_once(tree: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(command(workload, seed), cwd=tree,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark in {tree} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return result(done.stdout)


def arguments(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare to")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload every pair runs; repeat for more")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=7,
                   help="the benchmark's workload seed (default 7)")
    return p.parse_args(argv)


def main() -> int:
    args = arguments()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    better = {name: m["better"] for name, m in metrics.items()}

    results = {workload: ([], []) for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        base_tree, work_tree = trees(Path(tmp))
        export(args.base, base_tree)
        export_working_tree(work_tree)
        for i in range(args.pairs):
            for workload, (base, change) in results.items():
                sides = [(base_tree, base), (work_tree, change)]
                for tree, runs in sides if i % 2 == 0 else sides[::-1]:
                    runs.append(run_once(tree, workload, args.seed))
                print(f"pair {i + 1} {workload}: base {base[-1]}, change "
                      f"{change[-1]}", flush=True)
    print("\n".join(report(args.base, results, better)))
    print("\nverdicts:\n" + "\n".join(verdicts(results, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
