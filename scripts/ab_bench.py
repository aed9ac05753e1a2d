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
pairs the change did better (in the metric's own direction).
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


def summary(base: list, change: list, better: dict) -> list:
    """One line per metric of the pairs' results (lists of {metric:
    value}, base[i] paired with change[i]); `better` maps a metric to
    "lower" or "higher"."""
    lines = []
    for name in base[0]:
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        q1, _, q3 = statistics.quantiles(b, n=4) if len(b) > 1 else b * 3
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
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
