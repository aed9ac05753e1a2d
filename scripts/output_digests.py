#!/usr/bin/env python3
"""Print the sha256 of every file `bittide-sim run` writes.

Each config (default: every `configs/*.json` of this checkout) runs in three
modes: continuous, `--discrete` and `--discrete --continue-on-fault`.  One
line per written file gives the config (its folder and name), the mode, the
exit code, the file name and its digest, so a `diff` of this script's output
at two commits shows whether their outputs are byte-identical:

    python3 scripts/output_digests.py > digests.txt
    python3 scripts/output_digests.py path/to/config.json ...

The package is imported from `src/` of the checkout the script sits in.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bittide_sim.cli import main  # noqa: E402

MODES = {"continuous": [], "discrete": ["--discrete"],
         "discrete-continue": ["--discrete", "--continue-on-fault"]}


def digests(config: Path):
    """(mode, exit code, file name, sha256) of each file a run writes."""
    for mode, flags in MODES.items():
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            with warnings.catch_warnings(), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                rc = main(["run", "--config", str(config), "--out", str(out),
                           *flags])
            for path in sorted(out.iterdir()):
                yield mode, rc, path.name, hashlib.sha256(
                    path.read_bytes()).hexdigest()


def run(configs) -> int:
    for config in configs:
        for mode, rc, name, digest in digests(config):
            label = f"{config.parent.name}/{config.name}"
            print(f"{label} {mode} rc={rc} {name} {digest}")
    return 0


if __name__ == "__main__":
    args = [Path(a) for a in sys.argv[1:]]
    sys.exit(run(args or sorted((ROOT / "configs").glob("*.json"))))
