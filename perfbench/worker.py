"""One fresh benchmark process: import, generate inputs, run passes, check.

Started by run.py, never by hand.  `--mode setup` stops after the import and
input generation; `--mode measure` then runs one untimed warm-up pass and
timed passes until `--seconds` have elapsed, and with `--trace 1` alternates
untraced and traced passes.  Every untraced pass is bracketed by two timings
of a fixed kernel (`hostspeed.py`), so that each pass's time can be given
relative to the host's speed at that moment.  Prints one JSON object on
stdout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program():
    """Import the CLI from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import bittide_sim.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bittide_sim imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def run_pass(cli_module, workload, reference):
    """Time one invocation, then check its output outside the timed region.

    Returns (wall seconds, CPU seconds, outcome, error text)."""
    workload.clear()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_module.main(workload.argv)
    except (Exception, SystemExit):   # the failed operation is counted
        rc = traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    if isinstance(rc, str):
        return wall, cpu, None, rc
    try:
        outcome = workload.check(rc)
    except (OSError, ValueError, KeyError, TypeError):   # missing or bad output
        return wall, cpu, None, traceback.format_exc(limit=4)
    if reference is not None and outcome.digest != reference:
        outcome.failed = outcome.attempted
        outcome.note += "; output differs from the first pass"
    return wall, cpu, outcome, None


def median_metrics(per_pass):
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="directory for inputs/outputs")
    p.add_argument("--mode", choices=["setup", "measure"], required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--spans", default=None, help="file for the traced spans")
    args = p.parse_args()

    cli = load_program()
    import numpy
    import scipy
    import workloads
    workload = workloads.make(args.workload, args.seed, args.toy,
                              Path(args.work))
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import tracer as tracing
    walls, traced_walls, layers, spans, errors, notes = ([] for _ in range(6))
    probes, ratios = [], []
    attempted = failed = 0
    reference = None

    def account(outcome, error):
        nonlocal attempted, failed, reference
        attempted += workload.ops if outcome is None else outcome.attempted
        failed += workload.ops if outcome is None else outcome.failed
        if error:
            errors.append(error)
        else:
            reference = reference or outcome.digest
            notes.append(outcome.note)

    account(*run_pass(cli, workload, reference)[2:])   # warm-up, untimed
    # peak of a fresh process through one pass; later passes only add the
    # allocator's history, which varies from run to run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import hostspeed   # after the peak: its arrays are not the program's
    hostspeed.probe()   # warm-up, untimed
    labels = tracing.span_labels()
    unattributed = []

    def traced_pass():
        tr = tracing.Tracer()
        restore = tracing.install(tr)
        try:
            wall, cpu, outcome, error = run_pass(cli, workload, reference)
        finally:
            restore()
        traced_walls.append(wall)
        account(outcome, error)
        metrics = tr.metrics(labels)
        metrics["process.cpu_s"] = cpu
        layers.append(metrics)
        spans.append(tr.spans)
        # the root span is cli.main, so self times should cover the whole pass
        unattributed.append(wall - sum(v for k, v in metrics.items()
                                       if k.endswith(".self_s")))

    deadline = time.perf_counter() + args.seconds
    probe_before = hostspeed.probe()
    while True:
        wall, _, outcome, error = run_pass(cli, workload, reference)
        probe_after = hostspeed.probe()
        walls.append(wall)
        probes.append(probe_after)
        # the host's speed drifts on a scale of seconds to minutes, and the
        # kernel timed just before and just after the pass drifts with it
        ratios.append(wall / ((probe_before + probe_after) / 2))
        account(outcome, error)
        if args.trace:
            traced_pass()
            probe_after = hostspeed.probe()
        probe_before = probe_after
        if time.perf_counter() >= deadline:
            break

    result.update({
        "walls": walls, "probes": probes, "ratios": ratios,
        "attempted": attempted, "failed": failed,
        "digest": reference, "errors": errors[:5],
        "notes": sorted(set(notes)),
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    if args.trace:
        result.update({"traced_walls": traced_walls,
                       "unattributed_s": unattributed,
                       "layers": median_metrics(layers)})
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "fields": ["label", "parent", "start", "end"],
                 "passes": spans}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
