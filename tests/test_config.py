import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bittide_sim import graph
from bittide_sim.config import (KEYS, REQUIRED, ConfigError, config_to_dict,
                                parse_config, parse_config_dict)
from conftest import count_calls

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = {"topology": "bidirectional-ring", "n": 2, "k": 0.1,
           "omega_u": [1.00, 1.02]}


def emit_config(cfg) -> str:
    """The config as the JSON text that parse_config reads back."""
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def test_minimal_config_defaults():
    cfg = parse_config_dict(dict(MINIMAL))
    assert cfg.lam == (10.0, 10.0)          # lambda = 10 per edge
    assert cfg.beta_off == "feasible"
    assert cfg.integrator.method == "exact"
    assert cfg.controller == "reframing" and cfg.reframe.mode == "auto"
    assert cfg.q == (0.0, 0.0) and cfg.theta0 == (0.0, 0.0)
    topo = cfg.topology()
    assert topo.edges == ((1, 2), (2, 1))


def test_scalar_broadcasts():
    raw = dict(MINIMAL, omega_u=1.0, q=0.5, theta0=-1.0)
    cfg = parse_config_dict(raw)
    assert cfg.omega_u == (1.0, 1.0)
    assert cfg.q == (0.5, 0.5)
    assert cfg.theta0 == (-1.0, -1.0)


def test_explicit_edges_topology():
    raw = {"topology": {"edges": [[1, 2], [2, 3], [3, 1]]},
           "k": 1.0, "omega_u": 1.0}
    cfg = parse_config_dict(raw)
    assert cfg.n == 3 and cfg.edges == ((1, 2), (2, 3), (3, 1))
    assert cfg.lam == (10.0, 10.0, 10.0)


def test_dangling_node_named_in_error():
    raw = {"topology": {"edges": [[1, 2], [2, 1], [2, 3]]},
           "k": 1.0, "omega_u": 1.0}
    with pytest.raises(ConfigError, match="node 3"):
        parse_config_dict(raw)


@pytest.mark.parametrize("edges, node", [
    ([[1, 2], [2, 1], [2, 3]], 3),          # node 3 cannot reach node 1
    ([[1, 2], [2, 1], [3, 1], [4, 3]], 3),  # nodes 3, 4 unreachable from node 1
])
def test_not_strongly_connected_error_text(edges, node):
    raw = {"topology": {"edges": edges}, "k": 1.0, "omega_u": 1.0}
    with pytest.raises(ConfigError) as info:
        parse_config_dict(raw)
    assert str(info.value) == (
        f"config.topology: not strongly connected; node {node} is "
        "unreachable from or cannot reach node 1")


def test_reachability_check_visits_only_the_nodes_on_edges():
    # a node count with two edges: the check stays O(m), and names the
    # smallest stranded node as before
    raw = {"topology": {"n": 10**6, "edges": [[1, 2], [2, 1]]}, "k": 1.0,
           "omega_u": 1.0}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="node 3 is unreachable"):
            parse_config_dict(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required key 'k'"):
        parse_config_dict({"topology": "ring", "n": 3, "omega_u": 1.0})
    with pytest.raises(ConfigError, match="missing required key 'omega_u'"):
        parse_config_dict({"topology": "ring", "n": 3, "k": 1.0})
    with pytest.raises(ConfigError, match="missing required key 'topology'"):
        parse_config_dict({"n": 3, "k": 1.0, "omega_u": 1.0})


def test_unknown_key_rejected_in_strict_mode():
    raw = dict(MINIMAL, gain=2.0)
    with pytest.raises(ConfigError, match="unknown key 'gain'"):
        parse_config_dict(raw)
    with pytest.warns(UserWarning, match="unknown key"):
        parse_config_dict(raw, strict=False)


def test_unknown_nested_key_has_path():
    raw = dict(MINIMAL, reframe={"mode": "auto", "epsilonn": 1e-9})
    with pytest.raises(ConfigError, match=r"config\.reframe.*epsilonn"):
        parse_config_dict(raw)


def test_type_mismatch_reports_key_path():
    with pytest.raises(ConfigError, match=r"config\.k"):
        parse_config_dict(dict(MINIMAL, k="strong"))
    with pytest.raises(ConfigError, match=r"config\.omega_u"):
        parse_config_dict(dict(MINIMAL, omega_u=[1.0, "fast"]))
    with pytest.raises(ConfigError, match=r"config\.lambda"):
        parse_config_dict(dict(MINIMAL, **{"lambda": [1.0]}))  # wrong length


@pytest.mark.parametrize("raw, message", [
    (dict(MINIMAL, discrete={"control_period": True}),
     "config.discrete.control_period: expected number, got bool (True)"),
    (dict(MINIMAL, k="strong"), "config.k: expected number, got str "
                                "('strong')"),
    (dict(MINIMAL, discrete={"capacity": 2.5}),
     "config.discrete.capacity: expected int, got float (2.5)")])
def test_type_errors_name_the_expected_kind(raw, message):
    with pytest.raises(ConfigError) as info:
        parse_config_dict(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", list(graph.TOPOLOGY_KINDS))
@pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -3, 1.5])
def test_extra_edge_fraction_is_checked_for_every_generated_kind(kind,
                                                                 fraction):
    # a ring, bidirectional ring or complete graph ignored it, and a NaN
    # was echoed into summary.json as bare NaN, which is not JSON
    raw = dict(MINIMAL, topology=kind, n=3, omega_u=1.0,
               extra_edge_fraction=fraction)
    with pytest.raises(ConfigError) as info:
        parse_config_dict(raw)
    assert str(info.value) == ("config.extra_edge_fraction: must be in "
                               f"[0, 1], got {fraction}")


def test_nonpositive_gain_rejected():
    with pytest.raises(ConfigError, match="positive"):
        parse_config_dict(dict(MINIMAL, k=0.0))


def test_bad_controller_and_modes():
    with pytest.raises(ConfigError, match="controller"):
        parse_config_dict(dict(MINIMAL, controller="integral"))
    with pytest.raises(ConfigError) as info:
        parse_config_dict(dict(MINIMAL, reframe={"mode": "eventually"}))
    assert str(info.value) == ("config.reframe.mode: expected 'fixed-time' "
                               "or 'auto', got 'eventually'")
    with pytest.raises(ConfigError, match=r"integrator\.method"):
        parse_config_dict(dict(MINIMAL, integrator={"method": "leapfrog"}))


def test_round_trip_identity():
    for name in ("e1.json", "e1_discrete.json", "eight_node.json"):
        cfg = parse_config(CONFIG_DIR / name)
        again = parse_config_dict(json.loads(emit_config(cfg)))
        assert again == cfg


def test_round_trip_preserves_explicit_edges(tmp_path):
    raw = {"topology": {"edges": [[1, 2], [2, 1]]}, "k": 0.5, "omega_u": 1.0,
           "beta_off": [9.0, 11.0]}
    cfg = parse_config_dict(raw)
    text = emit_config(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert parse_config(p) == cfg
    assert cfg.beta_off == (9.0, 11.0)


def test_config_builds_runtime_objects():
    cfg = parse_config(CONFIG_DIR / "e1.json")
    params = cfg.system_params(cfg.topology())
    np.testing.assert_array_equal(params.omega_u, [1.00, 1.02])
    assert params.beta_off is None  # feasible tag materializes at init
    sched = cfg.schedule()
    assert sched.mode == "fixed-time" and sched.T1 == 250.0
    settings = cfg.integrator
    assert settings.horizon == 250.0

    dcfg = parse_config(CONFIG_DIR / "e1_discrete.json")
    scen = dcfg.discrete_scenario(dcfg.system())
    assert scen.capacity == 20 and scen.dt == 0.2
    assert scen.horizon == 500.0


@pytest.mark.parametrize("key", ["theta0", "lambda"])
def test_discrete_phase_of_2_52_frames_is_config_error(key):
    # adding a control period no longer moves a phase that large: the
    # discrete run spun on its next fire, or cast garbage into counters
    cfg = parse_config_dict(dict(MINIMAL, **{key: [0.0, 1e300]}))
    with pytest.raises(ConfigError, match=rf"^config\.discrete: {key} "
                                          r"entries must be below 2\*\*52"):
        cfg.discrete_scenario(cfg.system())
    # just below the bound the scenario builds
    cfg = parse_config_dict(dict(MINIMAL, **{key: [0.0, 2.0**52 - 1]}))
    cfg.discrete_scenario(cfg.system())


def test_discrete_offset_of_2_53_frames_is_config_error():
    # the feasible offsets of the phases just below 2**52 above reach
    # 2**52 + 9; at 2**53 a frame no longer moves beta - beta_off
    cfg = parse_config_dict(dict(MINIMAL, beta_off=[10.0, 2.0**53]))
    with pytest.raises(ConfigError, match=r"^config\.discrete: beta_off "
                                          r"entries must be below 2\*\*53"):
        cfg.discrete_scenario(cfg.system())
    cfg = parse_config_dict(dict(MINIMAL, beta_off=[10.0, 2.0**53 - 2]))
    cfg.discrete_scenario(cfg.system())


def test_system_generates_topology_once(monkeypatch):
    # parsing validates the generated topology, and the system reuses it
    calls = count_calls(monkeypatch, graph.generate_topology)
    cfg = parse_config_dict({"topology": "random-strong", "n": 6,
                             "extra_edge_fraction": 0.4, "k": 0.2,
                             "omega_u": 1.0})
    system = cfg.system()
    assert len(calls) == 1
    assert system.topology == cfg.topology()


def test_not_json_is_config_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(p)


def test_not_utf8_is_config_error(tmp_path):
    # the UnicodeDecodeError ended in a traceback
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"topology": "\xff"}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(p)


def key_table() -> str:
    """config.KEYS as a markdown table: key | takes | default | rule."""
    def takes(key):
        if isinstance(key.takes, tuple):
            *head, last = (f'`"{choice}"`' for choice in key.takes)
            return f"{', '.join(head)} or {last}"
        if key.takes in ("n", "m"):
            return f"number or list of {key.takes}"
        return {int: "int", float: "number", bool: "bool"}[key.takes]

    def default(key):
        if key.default is REQUIRED:
            return "required"
        return "unset" if key.default is None else f"`{json.dumps(key.default)}`"

    return "".join(["| key | takes | default | rule |\n",
                    "| --- | --- | --- | --- |\n"] + [
        f"| `{key.path}` | {takes(key)} | {default(key)} | {key.rule or '-'} |\n"
        for key in KEYS])


def test_readme_prints_the_key_table():
    # a key added to the parser without its row in the README fails here
    assert key_table() in README.read_text(encoding="utf-8")
