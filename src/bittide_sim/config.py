"""Scenario configuration: JSON parsing, strict validation, defaults.

The config file is the single input contract: everything a run needs is in
it (no environment variables), and the edge list order in the file defines
the canonical edge indices used by every trace column and report entry.
Parsed configs are plain-data dataclasses, so an emitted config re-parses to
an equal object.  Every key is read through its row of one table, `KEYS`.
"""

import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .controller import ReframeSchedule
from .dynamics import (IntegratorSettings, System, SystemParams,
                       make_system_params, prepare, stability_bound)
from .framesim import DiscreteScenario
from .graph import (TOPOLOGY_KINDS, Topology, TopologyError, check_generated_n,
                    generate_topology, stranded_node)

FEASIBLE = "feasible"
# the most sample intervals (continuous) or steps (discrete) of one run: the
# recorder holds a row of n + m values for each; and the most rk4 or euler
# substeps of a continuous run, which takes each in turn
MAX_SAMPLES = 2**24


class ConfigError(ValueError):
    """Configuration rejected; the message carries the offending key path."""


@dataclass(frozen=True)
class DiscreteSpec:
    enabled: bool = False
    control_period: float = 1.0
    quantization: int = 1
    capacity: int = 20
    continue_on_fault: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    k: float
    omega_u: tuple
    topology_kind: str | None = None     # None means explicit edges
    edges: tuple | None = None
    topology_seed: int = 0
    extra_edge_fraction: float = 0.0
    lam: tuple = ()
    beta_off: object = FEASIBLE          # "feasible" or per-edge tuple
    q: tuple = ()
    theta0: tuple = ()
    controller: str = "reframing"        # reframing | proportional
    reframe: ReframeSchedule = field(default_factory=ReframeSchedule)
    integrator: IntegratorSettings = field(default_factory=IntegratorSettings)
    discrete: DiscreteSpec = field(default_factory=DiscreteSpec)
    seed: int = 0
    # the topology the parser built to validate the config, kept so a run
    # does not generate it again; derived data, neither compared nor emitted
    parsed_topology: Topology | None = field(default=None, compare=False,
                                             repr=False)

    def topology(self) -> Topology:
        if self.parsed_topology is not None:
            return self.parsed_topology
        if self.topology_kind is None:
            return Topology(n=self.n, edges=self.edges)
        return generate_topology(self.topology_kind, self.n,
                                 seed=self.topology_seed,
                                 extra_edge_fraction=self.extra_edge_fraction)

    def system_params(self, topology: Topology) -> SystemParams:
        """Params broadcast over `topology`, this config's topology."""
        beta_off = None if self.beta_off == FEASIBLE else np.array(self.beta_off)
        return make_system_params(topology, k=self.k,
                                  omega_u=np.array(self.omega_u),
                                  lam=np.array(self.lam), beta_off=beta_off,
                                  q=np.array(self.q))

    def system(self) -> System:
        """The configured scenario, prepared once for every command to share."""
        topology = self.topology()
        return prepare(topology, self.system_params(topology),
                       np.array(self.theta0))

    def schedule(self) -> ReframeSchedule | None:
        return self.reframe if self.controller == "reframing" else None

    def continuous_settings(self, system: System) -> IntegratorSettings:
        """The continuous run's settings for `system`, this config's prepared
        system, once its sample count, and an rk4 or euler run's substep
        count, is within MAX_SAMPLES and an rk4 or euler dt is within the
        explicit-method stability bound."""
        dt, method = self.integrator.dt, self.integrator.method
        if method != "exact":
            bound = stability_bound(system.inc, system.params.k)
            if dt is not None and dt > bound:
                raise ConfigError(
                    f"config.integrator.dt: {method} substep {dt:.6g} exceeds "
                    f"the stability bound 1/(k * max in-degree) = {bound:.6g}")
        horizon, post_horizon, interval = self.integrator.spans(system)
        if self.schedule() is None:
            post_horizon = 0.0
        samples = (horizon + post_horizon) / interval
        if not samples <= MAX_SAMPLES:
            raise ConfigError(
                f"config.integrator: horizon {horizon:.6g} and post_horizon "
                f"{post_horizon:.6g} over sample_interval {interval:.6g} make "
                f"{samples:.3g} samples; a run records at most {MAX_SAMPLES}")
        if method != "exact":
            sub = self.integrator.substep(system)
            substeps = (horizon + post_horizon) / sub
            if not substeps <= MAX_SAMPLES:
                raise ConfigError(
                    f"config.integrator.dt: horizon {horizon:.6g} and "
                    f"post_horizon {post_horizon:.6g} in {method} substeps of "
                    f"{sub:.6g} make {substeps:.3g} substeps; a run takes at "
                    f"most {MAX_SAMPLES}")
        return self.integrator

    def discrete_scenario(self, system: System) -> DiscreteScenario:
        """The discrete-mode run of `system`, this config's prepared system."""
        d = self.discrete
        horizon, key = self.integrator.horizon, "integrator.horizon"
        if horizon is None:
            # same 50-e-fold rule the continuous runner applies, doubled to
            # leave room for the post-reframe phase
            horizon = system.sd.horizon() * (2.0 if self.controller == "reframing"
                                             else 1.0)
        elif (self.controller == "reframing" and self.reframe.mode == "fixed-time"
                and self.reframe.T1 is not None
                and self.integrator.post_horizon is not None):
            # horizon is the total run length; stretch it only when an explicit
            # post-reframe span would not fit
            end = self.reframe.T1 + self.integrator.post_horizon
            if end > horizon:
                horizon, key = end, "reframe.T1"
        try:
            scenario = DiscreteScenario(system=system, capacity=d.capacity,
                                        control_period=d.control_period,
                                        quantization=d.quantization,
                                        dt=self.integrator.dt, horizon=horizon,
                                        reframe=self.schedule(),
                                        continue_on_fault=d.continue_on_fault)
        except ValueError as exc:   # DiscreteScenario's range rules
            raise ConfigError(f"config.discrete: {exc}") from exc
        dt = scenario.step_size()
        if not scenario.step_count <= MAX_SAMPLES:
            raise ConfigError(
                f"config.{key}: a discrete horizon of {horizon:.6g} in steps "
                f"of dt = {dt:.6g} is {horizon / dt:.3g} steps; a run takes "
                f"at most {MAX_SAMPLES}")
        return scenario


class Key(NamedTuple):
    """One config key: its path, what it takes (int; float, any number; bool;
    one of a tuple of strings; or "n" or "m", a number for every node or
    edge or a list of n or m), its default (REQUIRED if none), its rule, and
    its path split into the object that holds it and its name."""
    path: str
    takes: object
    default: object
    rule: str | None
    section: str        # "" at the top
    name: str


REQUIRED = MISSING
# json.loads accepts NaN and Infinity, and an integer too large for a float
# reads as +-inf, so every rule refuses all three
RULES = {"finite": lambda x: -math.inf < x < math.inf,
         "finite and positive": lambda x: 0 < x < math.inf,
         "finite and >= 0": lambda x: 0 <= x < math.inf,
         "in [0, 1]": lambda x: 0 <= x <= 1,
         # DiscreteScenario's frame counts
         "a positive frame count": lambda x: 1 <= x < math.inf,
         "at least one frame and below 2**52 frames": lambda x: 1 <= x < 2**52}
SECTIONS = {"reframe": ReframeSchedule, "integrator": IntegratorSettings,
            "discrete": DiscreteSpec}
# a key's default is its field's, unless its row gives one
_FIELD_DEFAULTS = {f"{name}.{f.name}".lstrip("."): f.default for name, cls
                   in {"": ScenarioConfig, **SECTIONS}.items()
                   for f in fields(cls)}


def _key(path, takes, rule=None, *default) -> Key:
    return Key(path, takes, *default or [_FIELD_DEFAULTS.get(path, REQUIRED)],
               rule, *path.rpartition(".")[::2])


# the rows in the order they are read: the vectors of n entries come before
# the first of m entries, which generates the topology
KEYS = (
    _key("topology", TOPOLOGY_KINDS),   # or an explicit {"edges", "n"} object
    _key("n", int),
    _key("topology_seed", int),
    _key("extra_edge_fraction", float, "in [0, 1]"),
    _key("k", float, "finite and positive"),
    _key("omega_u", "n", "finite and positive"),
    _key("q", "n", "finite", 0.0),
    _key("theta0", "n", "finite", 0.0),
    _key("lambda", "m", "finite", 10.0),
    _key("beta_off", "m", "finite"),
    _key("controller", ("reframing", "proportional")),
    _key("reframe.mode", ("fixed-time", "auto")),
    _key("reframe.T1", float, "finite"),
    _key("reframe.epsilon", float, "finite and >= 0"),
    _key("reframe.window", float, "finite and positive"),
    _key("integrator.method", ("exact", "rk4", "euler")),
    _key("integrator.dt", float, "finite"),
    _key("integrator.sample_interval", float, "finite and positive"),
    _key("integrator.horizon", float, "finite and positive"),
    _key("integrator.post_horizon", float, "finite and positive"),
    _key("discrete.enabled", bool),
    _key("discrete.control_period", float, "finite"),
    _key("discrete.quantization", int,
         "at least one frame and below 2**52 frames"),
    _key("discrete.capacity", int, "a positive frame count"),
    _key("discrete.continue_on_fault", bool),
    _key("seed", int))
_TYPES = {int: ("int", int), float: ("number", (int, float)),
          bool: ("bool", bool), list: ("list", list)}


def _typed(v, takes, path: str):
    """v, once it is a `takes` (float: any number; a bool is no int)."""
    name, types = _TYPES[takes]
    if not isinstance(v, types) or isinstance(v, bool) != (takes is bool):
        raise ConfigError(f"{path}: expected {name}, got {type(v).__name__} "
                          f"({v!r})")
    return v


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v) -> float:
    """The JSON number v as a float, an integer too large for one as +-inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _vector(v, length: int, path: str, rule: str) -> tuple:
    """A number broadcast or a list of `length` numbers, each meeting `rule`."""
    if isinstance(v, list):
        if len(v) != length:
            raise ConfigError(f"{path}: expected {length} entries, got {len(v)}")
        if not all(map(_is_number, v)):
            raise ConfigError(f"{path}: entries must be numbers")
        values = tuple(map(_float, v))
    elif _is_number(v):
        values = (_float(v),) * length
    else:
        raise ConfigError(f"{path}: expected number or list, got "
                          f"{type(v).__name__}")
    if not all(map(RULES[rule], values)):
        raise ConfigError(f"{path}: entries must be {rule}")
    return values


def _read(key: Key, raw: dict, n: int | None, m: int | None):
    """The value of `key` in `raw`, its section, checked against its row."""
    path, v = f"config.{key.path}", raw.get(key.name, key.default)
    if v is REQUIRED:
        raise ConfigError(f"{path.rpartition('.')[0]}: missing required key "
                          f"'{key.name}'")
    if v is None and key.name not in raw:
        return None
    if isinstance(v, str) and v == key.default:     # "feasible", say
        return v
    if isinstance(key.takes, tuple):
        if v not in key.takes:
            *head, last = map(repr, key.takes)
            raise ConfigError(f"{path}: expected {', '.join(head)} or {last}, "
                              f"got {v!r}")
        return v
    if key.takes in ("n", "m"):
        return _vector(v, n if key.takes == "n" else m, path, key.rule)
    v = _typed(v, key.takes, path)
    if key.rule is None:
        return v
    x = _float(v)
    if not RULES[key.rule](x):
        got = f"{key.rule}, got {v if math.isfinite(x) else x}"
        if key.takes is int:    # worded as DiscreteScenario refuses it
            raise ConfigError(f"config.{key.section}: {key.name} must be {got}")
        raise ConfigError(f"{path}: must be {got}")
    return v if key.takes is int else x


def _check_keys(raw: dict, allowed, path: str, strict: bool):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        msg = (f"{path}: unknown key{'s' if len(unknown) > 1 else ''} "
               + ", ".join(map(repr, unknown)))
        if strict:
            raise ConfigError(msg)
        warnings.warn(msg, stacklevel=3)


def _section(raw: dict, key: str) -> dict:
    """The object at raw[key], {} if absent."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config.{key}: expected an object, got "
                          f"{type(section).__name__}")
    return section


def _explicit_topology(topo: dict, strict: bool) -> Topology:
    """The strongly connected topology of an {"edges", "n"} object."""
    _check_keys(topo, {"edges", "n"}, "config.topology", strict)
    if "edges" not in topo:
        raise ConfigError("config.topology: missing required key 'edges'")
    edges = _typed(topo["edges"], list, "config.topology.edges")
    for i, e in enumerate(edges):
        if (not isinstance(e, (list, tuple)) or len(e) != 2
                or not all(type(x) is int for x in e)):     # a bool is no int
            raise ConfigError(
                f"config.topology.edges[{i}]: expected [src, dst] integers")
    n = _typed(topo.get("n", max((max(e) for e in edges), default=0)), int,
               "config.topology.n")
    if n < 1:
        raise ConfigError(f"config.topology.n: must be at least 1, got {n}")
    topology = Topology(n=n, edges=tuple(map(tuple, edges)))
    if (stranded := stranded_node(topology)) is not None:
        raise ConfigError(
            f"config.topology: not strongly connected; node {stranded} "
            "is unreachable from or cannot reach node 1")
    return topology


def parse_config_dict(raw: dict, strict: bool = True) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at top level")
    raws = {"": raw, **{name: _section(raw, name) for name in SECTIONS}}
    for section, values in raws.items():
        allowed = {key.name for key in KEYS if key.section == section}
        _check_keys(values, allowed | set(SECTIONS) if not section else
                    allowed, f"config.{section}".rstrip("."), strict)
    parsed = {section: {} for section in raws}
    top, topology = parsed[""], None
    try:
        for key in KEYS:
            if key.path == "topology" and isinstance(raw.get("topology"), dict):
                topology = _explicit_topology(raw["topology"], strict)
                top.update(topology=None, n=topology.n)
                continue
            if topology is not None and key.path in (
                    "n", "topology_seed", "extra_edge_fraction"):
                continue    # the keys only a generated topology reads
            if key.takes == "m" and topology is None:
                topology = generate_topology(
                    top["topology"], top["n"], seed=top["topology_seed"],
                    extra_edge_fraction=top["extra_edge_fraction"])
            if key.path == "integrator.dt" and parsed["integrator"]["method"] \
                    != "exact":     # the one rule that reads another key
                key = key._replace(rule="finite and positive")
            parsed[key.section][key.name] = _read(
                key, raws[key.section], top.get("n"),
                topology.m if topology else None)
            if key.path == "n":     # before anything of n entries is built
                check_generated_n(top["n"])
    except TopologyError as exc:
        raise ConfigError(f"config.topology: {exc}") from exc
    kind = top.pop("topology")
    return ScenarioConfig(
        topology_kind=kind, edges=None if kind else topology.edges,
        lam=top.pop("lambda"), parsed_topology=topology,
        **{name: cls(**parsed[name]) for name, cls in SECTIONS.items()}, **top)


def parse_config(path, strict: bool = True) -> ScenarioConfig:
    """Load and validate a scenario config file."""
    try:    # a ValueError: not UTF-8, or an integer of over 4300 digits
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    return parse_config_dict(raw, strict=strict)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully resolved config as a JSON-ready dict that re-parses identically."""
    out: dict = {}
    if cfg.topology_kind is not None:
        out["topology"] = cfg.topology_kind
        out["n"] = cfg.n
        out["topology_seed"] = cfg.topology_seed
        out["extra_edge_fraction"] = cfg.extra_edge_fraction
    else:
        out["topology"] = {"n": cfg.n, "edges": [list(e) for e in cfg.edges]}
    out.update({
        "k": cfg.k,
        "omega_u": list(cfg.omega_u),
        "lambda": list(cfg.lam),
        "beta_off": (FEASIBLE if cfg.beta_off == FEASIBLE
                     else list(cfg.beta_off)),
        "q": list(cfg.q),
        "theta0": list(cfg.theta0),
        "controller": cfg.controller,
        "reframe": {k: v for k, v in asdict(cfg.reframe).items()
                    if v is not None},
        "integrator": {k: v for k, v in asdict(cfg.integrator).items()
                       if v is not None},
        "discrete": asdict(cfg.discrete),
        "seed": cfg.seed,
    })
    return out
