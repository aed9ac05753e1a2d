"""scripts/ab_bench.py summarizes benchmark pairs; checked on canned output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


@pytest.fixture
def ab_bench(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the summary must not start a benchmark run")

    monkeypatch.setattr(subprocess, "run", no_run)
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(wall_rel, rss, pass_rate=1.0):
    metrics = {"wall_rel": {"value": wall_rel, "unit": "probe"},
               "peak_rss_mb": {"value": rss, "unit": "MB"},
               "pass_rate": {"value": pass_rate, "unit": "ratio"}}
    return ("bittide-sim benchmark: workload discrete-fixed, seed 7, trace 0\n"
            f"  wall_rel {wall_rel} probe\n"
            + json.dumps({"correct": True, "attempted": 1, "failed": 0,
                          "metrics": metrics}) + "\n")


def test_result_reads_the_last_json_line(ab_bench):
    assert ab_bench.result(_report(2.35, 45.0)) == {
        "wall_rel": 2.35, "peak_rss_mb": 45.0, "pass_rate": 1.0}
    with pytest.raises(ValueError, match="no result line"):
        ab_bench.result("error: no bittide_sim source\n")


def test_summary_gives_medians_base_quartiles_and_wins(ab_bench):
    base = [ab_bench.result(_report(w, 45.0)) for w in (2.3, 2.4, 2.2, 2.5)]
    change = [ab_bench.result(_report(w, r, p)) for w, r, p in
              ((1.9, 45.1, 1.0), (2.0, 44.9, 1.0), (2.3, 45.0, 1.0),
               (1.8, 45.2, 1.0))]
    better = {"wall_rel": "lower", "peak_rss_mb": "lower",
              "pass_rate": "higher"}
    lines = ab_bench.summary(base, change, better)
    assert lines == [
        "wall_rel     base 2.35 (quartiles 2.225 / 2.475), change 1.95, "
        "change better in 3 of 4",
        "peak_rss_mb  base 45 (quartiles 45 / 45), change 45.05, "
        "change better in 1 of 4",
        "pass_rate    base 1 (quartiles 1 / 1), change 1, "
        "change better in 0 of 4",
    ]


def test_trees_are_sibling_paths_of_equal_length(ab_bench, tmp_path):
    # the one-pass peak RSS of a small workload moves with the path length
    base, work = ab_bench.trees(tmp_path)
    assert base != work
    assert base.parent == work.parent == tmp_path
    assert len(str(base)) == len(str(work))


def test_report_gives_one_block_per_workload_in_the_order_named(ab_bench):
    args = ab_bench.arguments(["--base", "a72c9be", "--workload", "battery",
                               "--workload", "discrete-auto", "--pairs", "2"])
    assert args.workload == ["battery", "discrete-auto"]
    assert args.pairs == 2
    results = {
        "battery": ([ab_bench.result(_report(w, 42.4)) for w in (1.5, 1.6)],
                    [ab_bench.result(_report(w, 42.5)) for w in (1.2, 1.3)]),
        "discrete-auto": ([ab_bench.result(_report(0.3, 41.0))] * 2,
                          [ab_bench.result(_report(0.31, 40.9))] * 2),
    }
    better = {"wall_rel": "lower", "peak_rss_mb": "lower",
              "pass_rate": "higher"}
    assert ab_bench.report(args.base, results, better) == [
        "battery: base a72c9be against the working tree, 2 pairs",
        "wall_rel     base 1.55 (quartiles 1.475 / 1.625), change 1.25, "
        "change better in 2 of 2",
        "peak_rss_mb  base 42.4 (quartiles 42.4 / 42.4), change 42.5, "
        "change better in 0 of 2",
        "pass_rate    base 1 (quartiles 1 / 1), change 1, "
        "change better in 0 of 2",
        "",
        "discrete-auto: base a72c9be against the working tree, 2 pairs",
        "wall_rel     base 0.3 (quartiles 0.3 / 0.3), change 0.31, "
        "change better in 0 of 2",
        "peak_rss_mb  base 41 (quartiles 41 / 41), change 40.9, "
        "change better in 2 of 2",
        "pass_rate    base 1 (quartiles 1 / 1), change 1, "
        "change better in 0 of 2",
    ]


def test_seed_reaches_every_run_and_defaults_to_7(ab_bench):
    args = ab_bench.arguments(["--base", "HEAD", "--workload",
                               "discrete-fixed"])
    assert args.seed == 7
    args = ab_bench.arguments(["--base", "HEAD", "--workload",
                               "discrete-fixed", "--seed", "11"])
    assert args.seed == 11
    argv = ab_bench.command("discrete-fixed", args.seed)
    assert argv[1:] == ["perfbench/run.py", "--workload", "discrete-fixed",
                        "--seed", "11", "--seconds", "25", "--trace", "0"]


@pytest.mark.parametrize("base, change, better, expected", [
    # 10 of 10 pairs better, and the gap of the medians is above the
    # base's quartile distance
    ([4.1, 4.12, 4.08, 4.11, 4.09, 4.1, 4.13, 4.07, 4.1, 4.1],
     [3.9, 3.91, 3.89, 3.92, 3.88, 3.9, 3.9, 3.91, 3.89, 3.9],
     "lower", "claim holds"),
    # 8 of 10 better is no claim, however wide the gap
    ([4.1] * 10, [3.0] * 8 + [4.2] * 2, "lower", "within bound"),
    # 10 of 10 better by less than the base's quartile distance
    ([4.0, 4.2, 4.0, 4.2, 4.0, 4.2, 4.0, 4.2, 4.0, 4.2],
     [3.95, 4.15, 3.95, 4.15, 3.95, 4.15, 3.95, 4.15, 3.95, 4.15],
     "lower", "within bound"),
    # worse by 30 % with a bound of 24 %
    ([1.0] * 10, [1.3] * 10, "lower", "regression"),
    ([1.0] * 10, [0.7] * 10, "higher", "regression"),
    ([1.0] * 10, [0.8] * 10, "higher", "within bound"),
    # the base's runs spread by (1.5 - 1.0) / 1.25 = 0.4 > 0.24
    ([1.0, 1.5] * 5, [0.5, 1.2] * 5, "lower", "unresolved"),
    ([1.0] * 10, [1.0, 1.5] * 5, "lower", "unresolved"),
    # a wide spread still resolves when every change run beats every base run
    ([1.0, 1.5] * 5, [0.5, 0.9] * 5, "lower", "claim holds"),
])
def test_verdict_of_each_case(ab_bench, base, change, better, expected):
    assert ab_bench.verdict(base, change, better, 0.24) == expected


def test_verdicts_read_the_bounds_of_the_benchmark(ab_bench):
    bench_file = SCRIPT.parent.parent / "BENCHMARK.json"
    text = bench_file.read_bytes()
    metrics = {m["name"]: m for m in json.loads(text)["end_to_end"]}
    results = {
        "large-continuous": (
            [ab_bench.result(_report(w, 86.0)) for w in (4.1, 4.12, 4.08)],
            [ab_bench.result(_report(w, 99.0)) for w in (3.9, 3.88, 3.91)]),
    }
    # peak_rss_mb grows by 15 % against its bound of 8 %
    assert ab_bench.verdicts(results, metrics) == [
        "large-continuous wall_rel: claim holds",
        "large-continuous peak_rss_mb: regression",
        "large-continuous pass_rate: within bound",
    ]
    assert bench_file.read_bytes() == text
