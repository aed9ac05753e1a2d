"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once at tiny size, untraced and
traced, and fails if a run fails, reports incorrect output, or leaves out or
mislabels a metric that BENCHMARK.json names.  It takes about half a minute
and is not part of the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [*bench["command"], "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS or not result["correct"]:
                problems.append(f"{where}: bad result {sorted(result)}, "
                                f"correct {result.get('correct')}")
            metrics = result.get("metrics", {})
            for m in spec:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} missing or "
                                    f"not in {m['unit']}")
            print(f"{'ok' if len(problems) == before else 'FAIL'} {where}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
