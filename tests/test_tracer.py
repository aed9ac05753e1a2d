"""The benchmark's tracer wraps the program from outside; it must still bind."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bittide_sim.cli  # noqa: F401  (the tracer wraps every module)
from bittide_sim import ReframeSchedule, Topology, cli, framesim, graph, verify
from bittide_sim.config import parse_config

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
CONFIG_DIR = TRACER.parent.parent / "configs"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs_and_restores():
    tracer = _load_tracer()
    original = graph.build_incidence
    tr = tracer.Tracer()
    restore = tracer.install(tr)   # raises if a traced function is unbound
    try:
        assert graph.build_incidence is not original
        graph.build_incidence(Topology(n=3, edges=[(1, 2), (2, 3), (3, 1)]))
    finally:
        restore()
    assert graph.build_incidence is original
    calls, _ = tr.self_times()
    assert calls["graph.build_incidence"] == 1
    assert tr.totals["graph.incidence_bytes"] == 3 * 3 * 3 * 8


def test_benchmark_tracer_counts_the_battery_layers():
    # the battery's gain shows in these counts; they must stay bound
    tracer = _load_tracer()
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        report = verify.run_battery(count=1, seed=0, infeasible_count=0)
    finally:
        restore()
    assert report["all_pass"]
    calls, _ = tr.self_times()
    scenarios = len(report["scenarios"])    # one random and the defective one
    # own q, 3 random q and one reframe per scenario
    assert calls["dynamics.run"] == 5 * scenarios
    assert 0 < calls["dynamics.exact_flow_operators"] < tr.calls["dynamics.step"]
    for check in verify.ALL_CHECKS:
        label = "verify.check." + check.__name__.removeprefix("check_")
        assert calls[label] == scenarios
    metrics = tr.metrics(tracer.span_labels())
    assert metrics["dynamics.flow_cache_hit_ratio"] > 0.5


def _bindings():
    """Every attribute of every loaded bittide_sim module, by (module, name)."""
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "bittide_sim" or name.startswith("bittide_sim.")
            for attr, value in vars(mod).items()}


def test_benchmark_tracer_counts_each_discrete_step(tmp_path):
    # the discrete workloads run with --trace 1 through these bindings
    tracer = _load_tracer()
    before = _bindings()
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        assert cli.main(["run", "--config", str(CONFIG_DIR / "e1_discrete.json"),
                         "--out", str(tmp_path)]) == 0
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    calls, _ = tr.self_times()
    assert calls["framesim.run_discrete"] == 1
    assert calls["framesim.discrete_step"] == 2500    # horizon 500 / dt 0.2
    # the batched law replaced the per-node views on the step path
    assert calls["controller.node_views"] == 0
    assert tr.calls["controller.proportional_correction"] == 0


def test_benchmark_tracer_counts_each_auto_trigger_call():
    # the discrete loop asks the reset after every step, and the reset calls
    # the trigger through controller's binding, where the tracer wraps it
    tracer = _load_tracer()
    cfg = parse_config(CONFIG_DIR / "e1_discrete.json")
    scenario = replace(cfg.discrete_scenario(cfg.system()), horizon=100.0,
                       reframe=ReframeSchedule(mode="auto"))
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        with pytest.warns(UserWarning, match="never fired"):
            framesim.run_discrete(scenario)
    finally:
        restore()
    calls, _ = tr.self_times()
    assert calls["framesim.discrete_step"] == 500    # horizon 100 / dt 0.2
    assert calls["controller.auto_reframe_trigger"] == 500
