"""The benchmark's tracer wraps the program from outside; it must still bind."""

import importlib.util
from pathlib import Path

import bittide_sim.cli  # noqa: F401  (the tracer wraps every module)
from bittide_sim import Topology, graph

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_benchmark_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
