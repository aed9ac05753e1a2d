#!/usr/bin/env python3
"""Run one config end to end and write its plot-ready series.

Writes trace.csv and summary.json, then the series of omega and of the
relative occupancy beta - beta_off (omega.txt and beta-rel.txt), and prints
the predicted against the simulated steady states:

    python3 scripts/figure_series.py                          # configs/e1.json
    python3 scripts/figure_series.py configs/eight_node.json

e1, the 2-node hand-oracle scenario, converges to omega 1.01 with
occupancies (9.9, 10.1) before the reframe and (10, 10) after it.  On
eight_node the spread clocks converge, jump at the reframe and reconverge,
while the relative occupancies move from their plateaus to zero.  The files
go to out/<config name>/ unless --out names another folder.  Any plotting
tool can draw the series, e.g.

    gnuplot -e "plot for [i=0:7] 'out/eight_node/omega.txt' index i w l"
"""

import argparse
import json
import sys
from pathlib import Path

from bittide_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(config: Path, out: Path) -> int:
    rc = main(["run", "--config", str(config), "--out", str(out)])
    if rc != 0:
        return rc
    for quantity in ("omega", "beta-rel"):
        rc = main(["plotdata", str(out / "trace.csv"),
                   "--quantity", quantity, "--config", str(config),
                   "--out", str(out / f"{quantity}.txt")])
        if rc != 0:
            return rc
    summary = json.loads((out / "summary.json").read_text())
    predicted, simulated = summary["predicted"], summary["simulated"]
    print("predicted omega_ss:", predicted["omega_ss"])
    print("terminal omega:    ", simulated["terminal_omega"])
    print("predicted beta_ss (pre-reframe):", predicted["beta_ss_pre_reframe"])
    print("terminal beta:                  ", simulated["terminal_beta"])
    print("reframe payload:", simulated["reframe_payload"])
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path, nargs="?",
                        default=ROOT / "configs" / "e1.json")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    sys.exit(run(args.config, args.out or ROOT / "out" / args.config.stem))
