#!/usr/bin/env python3
"""Print the sha256 of every file `bittide-sim run` writes.

Each config (default: every `configs/*.json` of this checkout) runs in six
modes: continuous, `--discrete`, `--discrete --continue-on-fault`,
continuous with `integrator.method` set to `rk4` and to `euler` (from a
temporary copy of the config, with `discrete.enabled` off), and
`discrete-auto`: `--discrete` from a temporary copy whose reframe is
`{"mode": "auto", "epsilon": 0.1, "window": 20.0}`, a trigger that fires
inside a discrete run of e1.  One line per
written file gives the config (its folder and name), the mode, the exit
code, the file name and its digest, so a `diff` of this script's output at
two commits shows whether their outputs are byte-identical.  A last line
per config, of mode `analyze`, digests the `analysis.json` that
`bittide-sim analyze` writes for it.  Without config
arguments two more lines follow: the digests of a continuous and a discrete
run of `configs/eight_node.json` with a per-node (staggered) fixed-time
reframe, run through the API because no config can give each node its own
T1:

    python3 scripts/output_digests.py > digests.txt
    python3 scripts/output_digests.py path/to/config.json ...

`--workloads SEED` runs instead the `run` workloads of the benchmark,
`large-continuous`, `discrete-fixed` and `discrete-auto`, each on the
config and flags that `perfbench/workloads.py` generates for SEED, and
prints one line per written file, and one more for the `analysis.json` of
`bittide-sim analyze` on the `large-continuous` config, whose n is above
the crossover `ARNOLDI_MIN_N` to the lambda_2 iteration:

    python3 scripts/output_digests.py --workloads 7

`--battery COUNT SEED` runs `bittide-sim verify --count COUNT --seed SEED`
instead.  The first line has the digest of its `battery.json`, less the
line of `summary.elapsed_seconds`, the one value that differs between runs.
The second has the digest of the report with every `residual` and
`worst_residual` removed as well, so a change that moves residuals by
design shows by this line that every status, tolerance and fingerprint
stayed the same.  Then one line per check gives its worst residual, and a
last line the negative controls' smallest centering gap, each as `%.17g`,
so a `diff` at two commits shows each residual that moved:

    python3 scripts/output_digests.py --battery 100 7

`--n-range N_MIN N_MAX` passes `--n-min N_MIN --n-max N_MAX` to that
`verify`, so the battery at other sizes is one command too:

    python3 scripts/output_digests.py --battery 20 7 --n-range 16 64

The package is imported from `src/` of the checkout the script sits in.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bittide_sim import ReframeSchedule  # noqa: E402
from bittide_sim import run as run_continuous  # noqa: E402
from bittide_sim.cli import main  # noqa: E402
from bittide_sim.config import parse_config  # noqa: E402
from bittide_sim.framesim import run_discrete  # noqa: E402

MODES = {"continuous": [], "discrete": ["--discrete"],
         "discrete-continue": ["--discrete", "--continue-on-fault"]}
# continuous runs with the config's integrator method replaced
METHODS = ("rk4", "euler")
# a discrete run with this reframe in place of the config's
AUTO_REFRAME = {"mode": "auto", "epsilon": 0.1, "window": 20.0}
ELAPSED = re.compile(rb'\n *"elapsed_seconds": [^\n]*')
RESIDUALS = ("residual", "worst_residual")
# the benchmark's workloads that run `bittide-sim run`
RUN_WORKLOADS = ("large-continuous", "discrete-fixed", "discrete-auto")
# each node's T1 in the staggered runs, before the discrete run of
# eight_node breaks a counter invariant near t = 58; two nodes share one T1
STAGGER = (30.0, 30.0, 32.0, 34.5, 36.0, 38.0, 40.1, 42.0)


def _quiet_main(argv) -> int:
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        return main(argv)


def _run_digests(config: Path, flags, command="run"):
    """(exit code, file name, sha256) of each file one run, or one call of
    another config `command`, writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        rc = _quiet_main([command, "--config", str(config), "--out", str(out),
                          *flags])
        for path in sorted(out.iterdir()):
            yield rc, path.name, hashlib.sha256(path.read_bytes()).hexdigest()


def digests(config: Path):
    """(mode, exit code, file name, sha256) of each file a run writes."""
    for mode, flags in MODES.items():
        for row in _run_digests(config, flags):
            yield (mode, *row)
    raw = json.loads(config.read_text(encoding="utf-8"))
    variants = [(f"continuous-{method}", [],
                 {"integrator": {**raw.get("integrator", {}), "method": method},
                  "discrete": {**raw.get("discrete", {}), "enabled": False}})
                for method in METHODS]
    variants.append(("discrete-auto", ["--discrete"],
                     {"reframe": AUTO_REFRAME}))
    for mode, flags, changes in variants:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / config.name
            copy.write_text(json.dumps({**raw, **changes}), encoding="utf-8")
            for row in _run_digests(copy, flags):
                yield (mode, *row)
    for row in _run_digests(config, [], "analyze"):
        yield ("analyze", *row)


def _benchmark_workloads():
    """perfbench/workloads.py of this checkout, as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_digests(seed: int):
    """(workload, exit code, file name, sha256) of each file a `run`
    workload of the benchmark writes at `seed`."""
    workloads = _benchmark_workloads()
    for name in RUN_WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            workload = workloads.make(name, seed, False, Path(tmp))
            rc = _quiet_main(workload.argv)
            for path in sorted(workload.out.iterdir()):
                yield (name, rc, path.name,
                       hashlib.sha256(path.read_bytes()).hexdigest())
            if name == "large-continuous":
                config = Path(workload.argv[workload.argv.index("--config")
                                            + 1])
                for row in _run_digests(config, [], "analyze"):
                    yield (f"{name}-analyze", *row)


def _trace_digest(trace, names) -> str:
    """sha256 of a trace's arrays `names`, its modes, faults and reframe
    time."""
    h = hashlib.sha256()
    for name in names:
        h.update(getattr(trace, name).tobytes())
    h.update(repr((trace.mode, getattr(trace, "faults", None),
                   trace.reframe_time)).encode())
    return h.hexdigest()


def staggered_digests():
    """(mode, sha256) of a continuous and a discrete run of eight_node with
    the per-node fixed-time reframe STAGGER; the discrete run continues on
    bound faults."""
    cfg = parse_config(ROOT / "configs" / "eight_node.json")
    system = cfg.system()
    schedule = ReframeSchedule(mode="fixed-time", T1=np.array(STAGGER))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = run_continuous(system, schedule=schedule)
        yield "staggered-continuous", _trace_digest(
            trace, ("times", "theta", "correction"))
        trace = run_discrete(replace(cfg.discrete_scenario(system),
                                     reframe=schedule, continue_on_fault=True))
        yield "staggered-discrete", _trace_digest(
            trace, ("times", "correction", "occupancy"))


def without_residuals(value):
    """The JSON value with every `residual` and `worst_residual` key
    removed, at any depth."""
    if isinstance(value, dict):
        return {key: without_residuals(v) for key, v in value.items()
                if key not in RESIDUALS}
    if isinstance(value, list):
        return [without_residuals(v) for v in value]
    return value


def _battery_report(count: int, seed: int,
                    n_range=None) -> tuple[int, bytes]:
    """(exit code, `battery.json` without its elapsed time) of one battery,
    over verify's default sizes or the (n_min, n_max) of n_range."""
    sizes = [] if n_range is None else [
        "--n-min", str(n_range[0]), "--n-max", str(n_range[1])]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        rc = _quiet_main(["verify", "--count", str(count), "--seed", str(seed),
                          *sizes, "--out", str(out)])
        text, found = ELAPSED.subn(b"", (out / "battery.json").read_bytes())
    if found != 1:
        raise ValueError(f"battery.json has {found} elapsed_seconds lines, not 1")
    return rc, text


def _digests(text: bytes) -> tuple[str, str]:
    """(sha256, residual-free sha256) of a report's text; the last hashes
    the report without residuals, dumped with sorted keys."""
    bare = json.dumps(without_residuals(json.loads(text)), sort_keys=True)
    return (hashlib.sha256(text).hexdigest(),
            hashlib.sha256(bare.encode()).hexdigest())


def battery_digest(count: int, seed: int,
                   n_range=None) -> tuple[int, str, str]:
    """(exit code, sha256, residual-free sha256) of the battery's
    `battery.json` without its elapsed time."""
    rc, text = _battery_report(count, seed, n_range)
    return (rc, *_digests(text))


def residual_lines(report: dict) -> list[str]:
    """Each check's worst residual, then the negative controls' smallest
    centering gap (none without controls), one `name %.17g` line each."""
    lines = [f"{name} {check['worst_residual']:.17g}"
             for name, check in report["summary"]["checks"].items()
             if check["worst_residual"] is not None]
    gaps = [row["centering"]["residual"]
            for row in report["negative_controls"]]
    gap = f"{min(gaps):.17g}" if gaps else "none"
    lines.append(f"negative-controls-min-centering-gap {gap}")
    return lines


def run(configs) -> int:
    for config in configs:
        for mode, rc, name, digest in digests(config):
            label = f"{config.parent.name}/{config.name}"
            print(f"{label} {mode} rc={rc} {name} {digest}")
    return 0


def run_staggered() -> int:
    for mode, digest in staggered_digests():
        print(f"configs/eight_node.json {mode} {digest}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path)
    parser.add_argument("--battery", nargs=2, type=int, metavar=("COUNT", "SEED"),
                        help="digest the battery's report instead of the configs")
    parser.add_argument("--n-range", nargs=2, type=int,
                        metavar=("N_MIN", "N_MAX"),
                        help="the battery's sizes, as verify --n-min/--n-max")
    parser.add_argument("--workloads", type=int, metavar="SEED",
                        help="digest the benchmark's run workloads instead")
    args = parser.parse_args()
    if args.workloads is not None:
        if args.configs or args.battery is not None or args.n_range:
            parser.error("--workloads takes no configs, no --battery and no "
                         "--n-range")
        for name, rc, file, digest in workload_digests(args.workloads):
            print(f"workload {name} seed={args.workloads} rc={rc} {file} "
                  f"{digest}")
        sys.exit(0)
    if args.battery is None:
        if args.n_range is not None:
            parser.error("--n-range needs --battery")
        if args.configs:
            sys.exit(run(args.configs))
        run(sorted((ROOT / "configs").glob("*.json")))
        sys.exit(run_staggered())
    if args.configs:
        parser.error("--battery takes no configs")
    count, seed = args.battery
    rc, text = _battery_report(count, seed, args.n_range)
    digest, bare = _digests(text)
    sizes = ("" if args.n_range is None
             else " n-range={}-{}".format(*args.n_range))
    label = f"battery count={count} seed={seed}{sizes} rc={rc}"
    print(f"{label} battery.json {digest}")
    print(f"{label} battery.json-without-residuals {bare}")
    for line in residual_lines(json.loads(text)):
        print(f"{label} {line}")
