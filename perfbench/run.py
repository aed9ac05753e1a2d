"""bittide-sim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workloads and metrics are those named
in BENCHMARK.json; README.md beside this file says why each was chosen.

With `--trace 0` the run measures host time end to end: `setup_s` is the
median over fresh processes of importing `bittide_sim` and generating the
inputs, `wall_rel` the median over the passes after one untimed warm-up pass
of a pass's wall time over that of the fixed kernel in hostspeed.py timed
beside it, `peak_rss_mb` the peak resident memory of the measuring process
and `pass_rate` the share of operations whose output checks passed.  With
`--trace 1` untraced and traced passes alternate, and the traced ones give
the per-layer metrics; `host.wall_s` there is the median untraced pass in
plain seconds.
Prints a readable report, then one JSON line; writes the full report and the
spans under `.perfbench_out/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8        # fresh processes that only set up, besides the worker
BLAS_THREADS = "1"      # fixed, never above nproc; two threads on 2 shared
                        # cores made n = 256 `run` twice as slow
TIME_LIMIT = 170.0      # seconds for the whole run, which must end within 180 s
SELF_TIME_SLACK = 0.02  # share of a traced pass its self times may miss

NOTES = (
    "not a workload: `run --config configs/eight_node.json --discrete "
    "--continue-on-fault` dies with a bare AssertionError at t ~ 58.4 (a "
    "known discrete-mode defect in ROADMAP.md); a crash measures no steady "
    "work, so it waits until the crash becomes a typed fault.",
    "not a workload: random-strong n = 1024 builds dense S/D/B of about "
    "282 MB (dense incidence, ROADMAP.md); it would dominate every run and "
    "the memory of a shared 2-core machine, so it waits for index-based "
    "incidence.",
    "known defect shown as a count, not a failure: the discrete auto reframe "
    "never fires on discrete-auto; see controller.trigger_fired over "
    "controller.auto_runs in the traced run.",
)


def fingerprint(versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha or "unknown (not a git checkout)",
            "nproc": os.cpu_count(), "cpu": cpu, **versions,
            "blas_threads": BLAS_THREADS}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Runner:
    """Starts the worker processes and waits for each of them to end."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)

    def worker(self, *extra) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--work", str(self.work), *extra]
        if a.toy:
            cmd.append("--toy")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("time limit reached before the worker started")
        # subprocess.run kills the child on timeout and waits for it
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n"
                               f"{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    def setup_probes(count):
        return [runner.worker("--mode", "setup")["setup_s"]
                for _ in range(count)]

    # half of the set-ups before the measuring worker and half after it, so
    # that their median spans the run and not one moment of the host's drift
    setups = setup_probes(SETUP_PROBES // 2)
    res = runner.worker("--mode", "measure", "--seconds",
                        str(runner.args.seconds))
    setups.append(res["setup_s"])
    setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    res["setups"] = setups
    values = {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(res["ratios"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_rate": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    return values, res


def traced(runner: Runner, spans: Path) -> tuple[dict, dict]:
    res = runner.worker("--mode", "measure", "--seconds",
                        str(runner.args.seconds), "--trace", "1",
                        "--spans", str(spans))
    values = dict(res["layers"])
    values["host.wall_s"] = statistics.median(res["walls"])
    values["host.probe_s"] = statistics.median(res["probes"])
    values["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                                  - statistics.median(res["walls"]))
    return values, res


def report_lines(args, values, units, res, env) -> list:
    a = args
    lines = [f"bittide-sim benchmark: workload {a.workload}, seed {a.seed}, "
             f"trace {a.trace}{' (toy size)' if a.toy else ''}"]
    for name, unit in units.items():
        lines.append(f"  {name:<44} {values[name]:.6g} {unit}")
    walls = res["walls"]
    q1, q3 = quartiles(walls)
    lines.append(f"  untraced passes: {len(walls)}, wall median "
                 f"{statistics.median(walls):.4f} s, quartiles {q1:.4f} / "
                 f"{q3:.4f} s")
    r1, r3 = quartiles(res["ratios"])
    lines.append(f"  wall / host-speed probe: median "
                 f"{statistics.median(res['ratios']):.4f}, quartiles "
                 f"{r1:.4f} / {r3:.4f}; probe median "
                 f"{statistics.median(res['probes']) * 1e3:.2f} ms")
    if "setups" in res:
        lines.append(f"  setup_s samples: {len(res['setups'])} fresh processes")
    lines.append(f"  operations: {res['attempted']} attempted, {res['failed']} "
                 f"failed, error_rate {res['failed'] / res['attempted']:.6g}")
    lines.append(f"  output sha256: {res['digest']}")
    lines += [f"  check: {n}" for n in res["notes"] if n]
    lines += [f"  error: {e.strip().splitlines()[-1]}" for e in res["errors"]]
    lines.append("  environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    lines += [f"  note: {n}" for n in NOTES]
    return lines


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="bittide-sim benchmark run")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs, for perfbench/selfcheck.py")
    args = p.parse_args()

    if not (ROOT / "src" / "bittide_sim" / "cli.py").is_file():
        print(f"error: no bittide_sim source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    runner = Runner(args, work)
    try:
        if args.trace:
            values, res = traced(runner, OUT / f"spans-{tag}.json")
        else:
            values, res = end_to_end(runner)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    env = fingerprint(res["versions"])
    correct = res["failed"] == 0
    if args.trace:
        slack = [u for u, w in zip(res["unattributed_s"], res["traced_walls"])
                 if abs(u) > SELF_TIME_SLACK * w + 1e-3]
        if slack:
            print(f"error: self times miss {slack} s of traced passes",
                  file=sys.stderr)
            correct = False
    lines = report_lines(args, values, units, res, env)
    (OUT / f"report-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "toy": args.toy, "environment": env, "metrics": values, "run": res,
         "notes": NOTES}, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
