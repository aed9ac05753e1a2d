"""The benchmark's tracer wraps the program from outside; it must still bind."""

import importlib.util
import math
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


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", TRACER.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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
    # the runs of the own q and 3 random q, with their reframe, are stepped
    # stacked by n, by a function the tracer does not bind: it sees no `run`
    # and no `step`, and only preparing's one stacked operator build, so its
    # flow-cache hit ratio reads 0
    assert calls["dynamics.run"] == 0
    assert tr.calls["dynamics.step"] == 0
    assert calls["dynamics.exact_flow_operators"] == 1
    for check in verify.ALL_CHECKS:
        label = "verify.check." + check.__name__.removeprefix("check_")
        assert calls[label] == scenarios
    metrics = tr.metrics(tracer.span_labels())
    assert metrics["dynamics.flow_cache_hit_ratio"] == 0.0


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
    # an advance runs through controller fires and ends at the reframe (T1 =
    # 250, step 1250) or after block_steps = 2048 steps, so each half of the
    # 2500 steps is one advance; the trace still has a row per step (horizon
    # 500 / dt 0.2), the initial row and the post-reframe row
    block_steps = framesim.BLOCK_ENTRIES // 2
    assert calls["framesim.discrete_step"] == 2 * math.ceil(1250 / block_steps)
    assert calls["framesim.discrete_step"] == 2
    trace = (tmp_path / "trace.csv").read_bytes()
    assert trace.count(b"\n") - 1 == 2502
    # the batched law replaced the per-node views on the step path
    assert calls["controller.node_views"] == 0
    assert tr.calls["controller.proportional_correction"] == 0


def test_benchmark_tracer_counts_each_auto_trigger_call():
    # the reset's detector calls the trigger through controller's binding,
    # where the tracer wraps it
    tracer = _load_tracer()
    cfg = parse_config(CONFIG_DIR / "e1_discrete.json")
    scenario = replace(cfg.discrete_scenario(cfg.system()), horizon=100.0,
                       reframe=ReframeSchedule(mode="auto"))
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        with pytest.warns(UserWarning, match="never fired"):
            trace = framesim.run_discrete(scenario)
    finally:
        restore()
    calls, _ = tr.self_times()
    assert len(trace.times) == 501    # horizon 100 / dt 0.2, and the t = 0 row
    # the 500 steps are one advance through the fires
    assert calls["framesim.discrete_step"] == 1
    # 115 steps fire a controller, one of them inside the advance's last
    # step: once at the row before each of the other 114, once at the row
    # before the last and once at the last
    assert calls["controller.auto_reframe_trigger"] == 116


def test_discrete_auto_workload_advances_through_controller_fires(tmp_path):
    # the benchmark's discrete-auto pass at seed 7: 2500 steps, of which 603
    # fire a controller, in one advance of at most block_steps = 4096 steps;
    # the auto reframe never fires
    tracer = _load_tracer()
    workload = _load_workloads().discrete_auto(7, False, tmp_path)
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        with pytest.warns(UserWarning, match="never fired"):
            assert cli.main(workload.argv) == 0
    finally:
        restore()
    calls, _ = tr.self_times()
    block_steps = framesim.BLOCK_ENTRIES // 2
    assert calls["framesim.discrete_step"] == math.ceil(2500 / block_steps)
    assert calls["framesim.discrete_step"] == 1
    trace = (workload.out / "trace.csv").read_bytes()
    assert trace.count(b"\n") - 1 == 2501


def test_discrete_fixed_workload_advances_through_controller_fires(tmp_path):
    # the benchmark's discrete-fixed pass at seed 7: 4000 steps on a 16-node
    # ring (m = 32), of which 3821 fire a controller, and a fixed T1 at step
    # 2000; each half is ceil(2000 / block_steps) advances, 8 of 256 steps
    tracer = _load_tracer()
    workload = _load_workloads().discrete_fixed(7, False, tmp_path)
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        assert cli.main(workload.argv) == 0
    finally:
        restore()
    calls, _ = tr.self_times()
    block_steps = framesim.BLOCK_ENTRIES // 32
    assert calls["framesim.discrete_step"] == 2 * math.ceil(2000 / block_steps)
    assert calls["framesim.discrete_step"] == 16
    trace = (workload.out / "trace.csv").read_bytes()
    assert trace.count(b"\n") - 1 == 4002


def test_benchmark_tracer_counts_one_trace_csv_per_run(tmp_path):
    # the tracer sizes the trace from what trace_csv returns
    tracer = _load_tracer()
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        assert cli.main(["run", "--config", str(CONFIG_DIR / "e1.json"),
                         "--out", str(tmp_path)]) == 0
    finally:
        restore()
    calls, _ = tr.self_times()
    assert calls["cli.trace_csv"] == 1
    assert tr.totals["cli.trace_bytes"] == (tmp_path / "trace.csv").stat().st_size


@pytest.mark.parametrize("config, mode, discrete", [
    ("e1.json", [], False), ("eight_node.json", [], False),
    ("e1.json", ["--discrete"], True), ("e1_discrete.json", [], True)])
def test_benchmark_tracer_sizes_the_written_trace(tmp_path, config, mode,
                                                  discrete):
    # the benchmark's trace_bytes and samples must describe the file written,
    # in both run loops, while the continuous loop derives omega and beta
    tracer = _load_tracer()
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        assert cli.main(["run", "--config", str(CONFIG_DIR / config),
                         "--out", str(tmp_path), *mode]) == 0
    finally:
        restore()
    calls, _ = tr.self_times()
    written = (tmp_path / "trace.csv").read_bytes()
    assert calls["cli.trace_csv"] == 1
    assert tr.totals["cli.trace_bytes"] == len(written)
    assert calls["framesim.run_discrete"] == int(discrete)
    assert calls["dynamics.run"] == int(not discrete)
    if not discrete:
        assert tr.totals["dynamics.samples"] == written.count(b"\n") - 1
    assert calls["dynamics.observe"] == 0
