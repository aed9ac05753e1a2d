#!/usr/bin/env python3
"""Time the layers of one `bittide-sim run` in process.

    python3 scripts/layer_times.py CONFIG [--discrete] [--repeat N]

Each repeat parses CONFIG and calls `cli.cmd_run` on it, with the layers it
calls wrapped by a timer, into a temporary directory.  It prints one JSON
line: for each layer, the best and the median seconds over the repeats.
The layers are

- `parse_config`, which runs before `cmd_run`;
- `system`, the scenario's prepared system (`ScenarioConfig.system`);
- `run` or `run_discrete`, the simulation;
- `trace_csv`, and within it `cells` and `join`, the two `floatfmt` calls
  that format and pack each chunk of rows;
- `summary_json`, the summary's JSON text;
- `writes`, the files written;
- `cmd_run`, the whole call, so that what the layers leave out shows.

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

from bittide_sim import cli, config, floatfmt  # noqa: E402


@contextlib.contextmanager
def timed(owner, name: str, label: str, seconds: dict):
    """Replace the attribute `name` of `owner` by a wrapper that adds the
    seconds of each call to seconds[label]."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[label] += time.perf_counter() - start

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def one_pass(path: str, discrete: bool, out_dir: Path) -> dict:
    """The seconds of each layer of one parse and `cmd_run` of the config."""
    runner = "run_discrete" if discrete else "run"
    layers = (("parse_config", config, "parse_config"),
              ("system", config.ScenarioConfig, "system"),
              (runner, cli, runner), ("trace_csv", cli, "trace_csv"),
              ("cells", floatfmt, "cells"), ("join", floatfmt, "join"),
              ("summary_json", cli, "_json_text"), ("writes", cli, "_write"),
              ("cmd_run", cli, "cmd_run"))
    seconds = dict.fromkeys([label for label, _, _ in layers], 0.0)
    with contextlib.ExitStack() as stack:
        for label, owner, name in layers:
            stack.enter_context(timed(owner, name, label, seconds))
        cfg = config.parse_config(path)
        cfg = cli._apply_overrides(cfg, argparse.Namespace(discrete=discrete))
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("ignore")
            cli.cmd_run(cfg, out_dir)
    return seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("config")
    p.add_argument("--discrete", action="store_true",
                   help="run in discrete mode, as `run --discrete` does")
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error(f"--repeat must be at least 1, got {args.repeat}")
    passes = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.repeat):
            passes.append(one_pass(args.config, args.discrete, Path(tmp)))
    print(json.dumps({
        "config": args.config, "discrete": args.discrete,
        "repeat": args.repeat,
        "best": {k: min(p[k] for p in passes) for k in passes[0]},
        "median": {k: statistics.median(p[k] for p in passes)
                   for k in passes[0]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
