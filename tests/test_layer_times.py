"""scripts/layer_times.py times a run's layers; checked on configs/e1.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"parse_config", "system", "run", "trace_csv", "cells", "join",
          "summary_json", "writes", "cmd_run"}


@pytest.fixture
def layer_times():
    spec = importlib.util.spec_from_file_location(
        "layer_times", ROOT / "scripts" / "layer_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags, runner", [([], "run"),
                                           (["--discrete"], "run_discrete")])
def test_one_repeat_prints_each_layer_once(layer_times, capsys, flags, runner):
    config = str(ROOT / "configs" / "e1.json")
    assert layer_times.main([config, "--repeat", "1", *flags]) == 0
    line, = capsys.readouterr().out.splitlines()
    report = json.loads(line)
    layers = LAYERS - {"run"} | {runner}
    assert report["repeat"] == 1 and report["discrete"] == bool(flags)
    for stat in ("best", "median"):
        assert set(report[stat]) == layers
        assert all(seconds > 0 for seconds in report[stat].values())
    # one repeat: its best is its median, and the parts fit in the whole
    assert report["best"] == report["median"]
    best = report["best"]
    assert best["cells"] + best["join"] <= best["trace_csv"] <= best["cmd_run"]


def test_the_layers_are_unwrapped_afterwards(layer_times, capsys):
    from bittide_sim import cli, floatfmt

    before = (cli.trace_csv, floatfmt.cells, floatfmt.join, cli.run)
    layer_times.main([str(ROOT / "configs" / "e1.json"), "--repeat", "1"])
    assert (cli.trace_csv, floatfmt.cells, floatfmt.join, cli.run) == before
