"""Benchmark workloads: seeded inputs and the output checks behind pass_rate.

Every workload is a closed loop with one client: a pass is one `bittide-sim`
invocation through `bittide_sim.cli.main`, and the next pass starts only when
the previous one has returned.  The seed only shapes the generated argv and
config file; the program never sees it any other way.  The inputs of one run
are fixed, so every pass must write byte-identical output.
"""

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

OK_STATUSES = ("pass", "not-applicable")
TOL_OMEGA = 1e-8       # terminal omega vs omega_ss, times max omega_u
TOL_CENTERING = 1e-6   # terminal beta vs beta_off, frames


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str
    note: str = ""


@dataclass
class Workload:
    argv: list
    out: Path
    ops: int                          # operations per pass
    check: Callable[[int], Outcome]   # exit code -> outcome of the pass

    def clear(self):
        """Remove the previous pass's output, so a check never reads it."""
        shutil.rmtree(self.out, ignore_errors=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(work: Path, cfg: dict) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _trace_digest(out: Path) -> str:
    return _sha256((out / "trace.csv").read_bytes())


def battery(seed: int, toy: bool, work: Path) -> Workload:
    """`verify --count 100`: many small scenarios, spectral solves and checks."""
    count = 3 if toy else 100
    out = work / "out"
    argv = ["verify", "--count", str(count), "--seed", str(seed),
            "--out", str(out)]

    def check(rc: int) -> Outcome:
        report = json.loads((out / "battery.json").read_text(encoding="utf-8"))
        rows, controls = report["scenarios"], report["negative_controls"]
        failed = sum(any(v["status"] not in OK_STATUSES for v in row["verdicts"])
                     for row in rows)
        failed += sum(not c["control_ok"] for c in controls)
        if rc != 0 or not report["all_pass"]:
            failed = max(failed, 1)
        # the only field that legitimately differs between passes
        del report["summary"]["elapsed_seconds"]
        digest = _sha256(json.dumps(report, sort_keys=True).encode())
        return Outcome(len(rows) + len(controls), failed, digest)

    # count random scenarios, one pinned defective case, min(count, 20) controls
    return Workload(argv, out, count + 1 + min(count, 20), check)


def large_continuous(seed: int, toy: bool, work: Path) -> Workload:
    """n = 256 random-strong with auto reframe: dense algebra and the CSV writer."""
    n = 16 if toy else 256
    rng = np.random.default_rng(seed)
    omega_u = rng.uniform(0.98, 1.02, size=n).tolist()
    cfg = {"topology": "random-strong", "n": n, "topology_seed": seed,
           "extra_edge_fraction": 0.1, "k": 0.2, "omega_u": omega_u,
           "lambda": 10.0, "controller": "reframing",
           "reframe": {"mode": "auto"}}
    out = work / "out"
    argv = ["run", "--config", str(_write_config(work, cfg)), "--out", str(out)]

    def check(rc: int) -> Outcome:
        s = _summary(out)
        sim, pred = s["simulated"], s["predicted"]
        omega_gap = float(np.abs(np.subtract(sim["terminal_omega"],
                                             pred["omega_ss"])).max())
        beta_gap = float(np.abs(np.subtract(sim["terminal_beta"],
                                            pred["beta_ss_post_reframe"])).max())
        ok = (rc == 0 and omega_gap <= TOL_OMEGA * max(omega_u)
              and beta_gap <= TOL_CENTERING)
        note = (f"omega gap {omega_gap:.3e}, beta gap {beta_gap:.3e}, "
                f"reframe at {sim['reframe_time']}")
        return Outcome(1, int(not ok), _trace_digest(out), note)

    return Workload(argv, out, 1, check)


def discrete_fixed(seed: int, toy: bool, work: Path) -> Workload:
    """16-node bidirectional ring, discrete, fixed-time reframe at T1."""
    n, dt = 16, 0.2
    horizon = 80.0 if toy else 800.0
    t1 = horizon / 2
    rng = np.random.default_rng(seed)
    cfg = {"topology": "bidirectional-ring", "n": n, "k": 0.05,
           "omega_u": rng.uniform(0.99, 1.01, size=n).tolist(),
           # spread boot phases, so that the steps with a controller fire
           # do not depend on how long the clocks stay in phase
           "theta0": rng.uniform(0.0, 1.0, size=n).tolist(),
           "lambda": 10.0, "controller": "reframing",
           "reframe": {"mode": "fixed-time", "T1": t1},
           "integrator": {"dt": dt, "horizon": horizon},
           "discrete": {"capacity": 20}}
    out = work / "out"
    argv = ["run", "--config", str(_write_config(work, cfg)), "--out", str(out),
            "--discrete"]

    def check(rc: int) -> Outcome:
        s = _summary(out)
        t_fire = s["simulated"]["reframe_time"]
        on_time = t_fire is not None and abs(t_fire - t1) <= dt + 1e-9
        ok = rc == 0 and not s["faults"] and not s["aborted"] and on_time
        note = f"reframe at {t_fire} (T1 {t1}), faults {len(s['faults'])}"
        return Outcome(1, int(not ok), _trace_digest(out), note)

    return Workload(argv, out, 1, check)


def discrete_auto(seed: int, toy: bool, work: Path) -> Workload:
    """configs/e1_discrete.json with an auto reframe and seeded omega_u."""
    rng = np.random.default_rng(seed)
    omega_u = (np.array([1.00, 1.02])
               + rng.uniform(-0.005, 0.005, size=2)).tolist()
    cfg = {"topology": "bidirectional-ring", "n": 2, "k": 0.1,
           "omega_u": omega_u, "lambda": 10.0, "beta_off": "feasible",
           "controller": "reframing", "reframe": {"mode": "auto"},
           "integrator": {"dt": 0.2, "horizon": 50.0 if toy else 500.0},
           "discrete": {"control_period": 1.0, "quantization": 1,
                        "capacity": 20}}
    out = work / "out"
    argv = ["run", "--config", str(_write_config(work, cfg)), "--out", str(out),
            "--discrete"]

    def check(rc: int) -> Outcome:
        # a trigger that never fires is a known defect, reported as a count
        # (controller.trigger_fired), never as a failed operation
        s = _summary(out)
        ok = rc == 0 and not s["faults"] and not s["aborted"]
        note = (f"reframe at {s['simulated']['reframe_time']}, "
                f"faults {len(s['faults'])}")
        return Outcome(1, int(not ok), _trace_digest(out), note)

    return Workload(argv, out, 1, check)


WORKLOADS = {"battery": battery, "large-continuous": large_continuous,
             "discrete-fixed": discrete_fixed, "discrete-auto": discrete_auto}


def make(name: str, seed: int, toy: bool, work: Path) -> Workload:
    return WORKLOADS[name](seed, toy, work)
