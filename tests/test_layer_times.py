"""scripts/layer_times.py times a run's layers; checked on configs/e1.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"parse_config", "system", "reachability", "closed_loop",
          "spectrum", "solves", "run", "trace_csv", "cells", "join",
          "summary_json", "writes", "cmd_run"}
SYSTEM_LAYERS = ("reachability", "closed_loop", "spectrum", "solves")


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
    assert sum(best[label] for label in SYSTEM_LAYERS) <= best["system"]
    # e1 is below the crossover: its lambda_2 is a dense eigvals'
    assert report["lambda2"] == {"path": "eigvals", "products": 0,
                                 "fell_back": False}


def test_the_iteration_shows_in_the_spectrum_layer(layer_times, capsys,
                                                    tmp_path):
    from bittide_sim import spectral

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "topology": "random-strong", "n": spectral.ARNOLDI_MIN_N,
        "extra_edge_fraction": 0.1, "k": 0.2, "omega_u": 1.0}))
    assert layer_times.main([str(config), "--repeat", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    lambda2 = report["lambda2"]
    assert lambda2["path"] == "arnoldi" and not lambda2["fell_back"]
    assert 0 < lambda2["products"] <= 2 * spectral.ARNOLDI_MIN_N
    best = report["best"]
    assert sum(best[label] for label in SYSTEM_LAYERS) <= best["system"]


def test_the_layers_are_unwrapped_afterwards(layer_times, capsys):
    from bittide_sim import cli, floatfmt

    import numpy as np

    from bittide_sim import dynamics, spectral

    def bound():
        return (cli.trace_csv, floatfmt.cells, floatfmt.join, cli.run,
                dynamics.is_strongly_connected, dynamics.build_closed_loop,
                np.linalg.eigvals, spectral.rightmost_eigenvalue,
                spectral._null_vectors, spectral._group_inverses)

    before = bound()
    layer_times.main([str(ROOT / "configs" / "e1.json"), "--repeat", "1"])
    assert bound() == before


def test_the_battery_phases_are_timed_once_each(layer_times, capsys):
    from bittide_sim import verify

    names = ("make_random_scenario", "_prepare", "_fill_traces",
             "_fill_residuals", "run_battery")
    before = [getattr(verify, name) for name in names]
    assert layer_times.main(["--verify", "3", "7", "--repeat", "1"]) == 0
    assert [getattr(verify, name) for name in names] == before
    line, = capsys.readouterr().out.splitlines()
    report = json.loads(line)
    assert report["verify"] == {"count": 3, "seed": 7}
    best = report["best"]
    assert list(best) == ["generation", "prepare", "traces", "residuals",
                          "probes", "verdict_rows", "report_json",
                          "run_battery", "cmd_verify"]
    assert report["best"] == report["median"]
    assert all(seconds > 0 for seconds in best.values())
    phases = sum(best[label] for label in list(best)[:6])
    # the phases are run_battery's parts, and it is cmd_verify's
    assert abs(phases - best["run_battery"]) <= 1e-9
    assert best["run_battery"] + best["report_json"] <= best["cmd_verify"]


@pytest.mark.parametrize("argv", [[], ["--verify", "3", "7", "x.json"],
                                  ["--verify", "3", "7", "--discrete"],
                                  ["--verify", "-1", "7"]])
def test_a_run_and_the_battery_are_asked_for_one_at_a_time(layer_times,
                                                           argv):
    with pytest.raises(SystemExit) as exc:
        layer_times.main(argv)
    assert exc.value.code == 2
