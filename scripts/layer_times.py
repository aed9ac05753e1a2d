#!/usr/bin/env python3
"""Time the layers of one `bittide-sim run`, or of the battery, in process.

    python3 scripts/layer_times.py CONFIG [--discrete] [--repeat N]
    python3 scripts/layer_times.py --verify COUNT SEED [--repeat N]

Each repeat parses CONFIG and calls `cli.cmd_run` on it, with the layers it
calls wrapped by a timer, into a temporary directory.  It prints one JSON
line: for each layer, the best and the median seconds over the repeats,
and under `lambda2` how the run found it: `path` "arnoldi" or "eigvals",
the iteration's `products` (0 where it did not run), and `fell_back`,
whether it ran out of its budget and left lambda_2 to eigvals.  The layers
are

- `parse_config`, which runs before `cmd_run`;
- `system`, the scenario's prepared system (`ScenarioConfig.system`), and
  within it
  - `reachability`, the strong-connectivity check,
  - `closed_loop`, the closed loop's matrix and residual,
  - `spectrum`, the dense `eigvals` or the lambda_2 iteration
    (`spectral.rightmost_eigenvalue`),
  - `solves`, the bordered solves of z and the group inverse G;
- `run` or `run_discrete`, the simulation;
- `trace_csv`, and within it `cells` and `join`, the two `floatfmt` calls
  that format and pack each chunk of rows;
- `summary_json`, the summary's JSON text;
- `writes`, the files written;
- `cmd_run`, the whole call, so that what the layers leave out shows.

With `--verify COUNT SEED` each repeat calls `cli.cmd_verify` as
`bittide-sim verify --count COUNT --seed SEED` does, and the layers are the
battery's phases:

- `generation`, the random scenarios, the defective one and the controls;
- `prepare`, every system and its runs' sample operator;
- `traces`, the runs, one stack per size n;
- `residuals`, every check's residuals, one pass per size n;
- `probes`, the diagonalizability probe;
- `verdict_rows`, the rest of `run_battery`: each check's verdict from the
  residuals, the report's rows and its summary;
- `report_json`, the report's JSON text;
- `run_battery` and `cmd_verify`, the whole calls.

The package is imported from `src/` of the checkout the script sits in.
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bittide_sim import (cli, config, dynamics, floatfmt,  # noqa: E402
                         spectral, verify)


@contextlib.contextmanager
def timed(owner, name: str, label: str, seconds: dict, running: set):
    """Replace the attribute `name` of `owner` by a wrapper that adds the
    seconds of each call to seconds[label].  `running` holds the labels
    being timed: a call inside a call of its own label, as
    make_infeasible_scenario's make_random_scenario, is not counted twice."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if label in running:
            return fn(*args, **kwargs)
        running.add(label)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[label] += time.perf_counter() - start
            running.discard(label)

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def timed_pass(layers, call) -> dict:
    """The seconds of each (label, owner, name) layer of one call()."""
    seconds = dict.fromkeys([label for label, _, _ in layers], 0.0)
    running = set()
    with contextlib.ExitStack() as stack:
        for label, owner, name in layers:
            stack.enter_context(timed(owner, name, label, seconds, running))
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            call()
    return seconds


@contextlib.contextmanager
def recorded(owner, name: str, results: list):
    """Replace the attribute `name` of `owner` by a wrapper that appends
    the value of each call to `results`."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def lambda2_path(results: list) -> dict:
    """How a run found lambda_2, from the (lambda_2 or None, products)
    results of its `rightmost_eigenvalue` calls."""
    products = sum(count for _, count in results)
    fell_back = any(found is None for found, _ in results)
    return {"path": "arnoldi" if results and not fell_back else "eigvals",
            "products": products, "fell_back": fell_back}


def one_pass(path: str, discrete: bool, out_dir: Path) -> tuple[dict, dict]:
    """The seconds of each layer of one parse and `cmd_run` of the config,
    and how its system found lambda_2."""
    runner = "run_discrete" if discrete else "run"
    layers = (("parse_config", config, "parse_config"),
              ("system", config.ScenarioConfig, "system"),
              ("reachability", dynamics, "is_strongly_connected"),
              ("closed_loop", dynamics, "build_closed_loop"),
              ("spectrum", np.linalg, "eigvals"),
              ("spectrum", spectral, "rightmost_eigenvalue"),
              ("solves", spectral, "_null_vectors"),
              ("solves", spectral, "_group_inverses"),
              (runner, cli, runner), ("trace_csv", cli, "trace_csv"),
              ("cells", floatfmt, "cells"), ("join", floatfmt, "join"),
              ("summary_json", cli, "_json_text"), ("writes", cli, "_write"),
              ("cmd_run", cli, "cmd_run"))

    def call():
        cfg = config.parse_config(path)
        cfg = cli._apply_overrides(cfg, argparse.Namespace(discrete=discrete))
        cli.cmd_run(cfg, out_dir)

    results = []
    with recorded(spectral, "rightmost_eigenvalue", results):
        seconds = timed_pass(layers, call)
    return seconds, lambda2_path(results)


def battery_pass(count: int, seed: int, out_dir: Path) -> dict:
    """The seconds of each phase of one `cmd_verify` of the battery."""
    layers = (("generation", verify, "make_random_scenario"),
              ("generation", verify, "make_infeasible_scenario"),
              ("generation", verify, "_defective_scenario"),
              ("prepare", verify, "_prepare"),
              ("traces", verify, "_fill_traces"),
              ("residuals", verify, "_fill_residuals"),
              ("probes", verify, "_last_non_diagonalizable"),
              ("report_json", cli, "_json_text"),
              ("run_battery", verify, "run_battery"),
              ("cmd_verify", cli, "cmd_verify"))
    args = argparse.Namespace(count=count, seed=seed, n_min=2, n_max=8,
                              infeasible=None)
    seconds = timed_pass(layers, lambda: cli.cmd_verify(args, out_dir))
    phases = ("generation", "prepare", "traces", "residuals", "probes")
    rest = seconds["run_battery"] - sum(seconds[label] for label in phases)
    return {**{label: seconds[label] for label in phases},
            "verdict_rows": rest, **{label: seconds[label] for label in
                                     ("report_json", "run_battery",
                                      "cmd_verify")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("config", nargs="?")
    p.add_argument("--discrete", action="store_true",
                   help="run in discrete mode, as `run --discrete` does")
    p.add_argument("--verify", nargs=2, type=int, metavar=("COUNT", "SEED"),
                   help="time the battery's phases instead of a run")
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error(f"--repeat must be at least 1, got {args.repeat}")
    if (args.config is None) == (args.verify is None):
        p.error("give either CONFIG or --verify COUNT SEED")
    if args.verify is not None and (args.discrete or args.verify[0] < 0):
        p.error("--verify takes a COUNT of at least 0 and no --discrete")
    passes = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.repeat):
            if args.verify is None:
                seconds, lambda2 = one_pass(args.config, args.discrete,
                                            Path(tmp))
            else:
                seconds = battery_pass(*args.verify, Path(tmp))
            passes.append(seconds)
    head = ({"config": args.config, "discrete": args.discrete,
             "lambda2": lambda2}
            if args.verify is None
            else {"verify": dict(zip(("count", "seed"), args.verify))})
    print(json.dumps({
        **head, "repeat": args.repeat,
        "best": {k: min(p[k] for p in passes) for k in passes[0]},
        "median": {k: statistics.median(p[k] for p in passes)
                   for k in passes[0]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
