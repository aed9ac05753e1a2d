"""Scenario configuration: JSON parsing, strict validation, defaults.

The config file is the single input contract: everything a run needs is in
it (no environment variables), and the edge list order in the file defines
the canonical edge indices used by every trace column and report entry.
Parsed configs are plain-data dataclasses, so an emitted config re-parses to
an equal object.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .controller import ReframeSchedule
from .dynamics import (IntegratorSettings, System, SystemParams,
                       make_system_params, prepare, stability_bound)
from .framesim import DiscreteScenario
from .graph import (TOPOLOGY_KINDS, Topology, TopologyError, check_generated_n,
                    generate_topology, stranded_node)

FEASIBLE = "feasible"
# the most sample intervals (continuous) or steps (discrete) of one run: the
# recorder holds a row of n + m values for each
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
        system, once its sample count is within MAX_SAMPLES and an rk4 or
        euler dt is within the explicit-method stability bound."""
        dt, method = self.integrator.dt, self.integrator.method
        if method != "exact" and dt is not None:
            bound = stability_bound(system.inc, system.params.k)
            if dt > bound:
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


def _type_name(v):
    return type(v).__name__


def _expect(raw: dict, key: str, types, path: str, required=False, default=None):
    if key not in raw:
        if required:
            raise ConfigError(f"{path}: missing required key '{key}'")
        return default
    v = raw[key]
    # a bool is an int to isinstance, and only a bool key takes one
    if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
        name = "number" if types == (int, float) else types.__name__
        raise ConfigError(f"{path}.{key}: expected {name}, got "
                          f"{_type_name(v)} ({v!r})")
    return v


def _check_keys(raw: dict, allowed, path: str, strict: bool):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        msg = f"{path}: unknown key{'s' if len(unknown) > 1 else ''} " \
              f"{', '.join(repr(u) for u in unknown)}"
        if strict:
            raise ConfigError(msg)
        import warnings
        warnings.warn(msg, stacklevel=3)


def _section(raw: dict, key: str) -> dict:
    """The object at raw[key], {} if absent."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config.{key}: expected an object, got "
                          f"{_type_name(section)}")
    return section


def _vector(raw, length, path, minimum=None):
    """Scalar broadcast or full-length list of finite numbers."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, list)):
        raise ConfigError(f"{path}: expected number or list, got {_type_name(raw)}")
    if isinstance(raw, (int, float)):
        values = (float(raw),) * length
    else:
        if len(raw) != length:
            raise ConfigError(f"{path}: expected {length} entries, got {len(raw)}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in raw):
            raise ConfigError(f"{path}: entries must be numbers")
        values = tuple(float(x) for x in raw)
    if not all(math.isfinite(x) for x in values):   # json.loads accepts NaN
        raise ConfigError(f"{path}: entries must be finite")
    if minimum is not None and any(x <= minimum for x in values):
        raise ConfigError(f"{path}: entries must be > {minimum}")
    return values


def _parse_topology(raw: dict, strict: bool):
    """(kind, edges, n, topology_seed, extra_edge_fraction, topology) of the
    config; a generated topology is None here: it is formed once the
    vectors of n entries are checked."""
    topo = raw.get("topology")
    if topo is None:
        raise ConfigError("config: missing required key 'topology'")
    if isinstance(topo, str):
        if topo not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"config.topology: unknown kind {topo!r}, expected one of "
                f"{TOPOLOGY_KINDS} or an object with 'edges'")
        n = _expect(raw, "n", int, "config", required=True)
        seed = _expect(raw, "topology_seed", int, "config", default=0)
        frac = _expect(raw, "extra_edge_fraction", (int, float), "config",
                       default=0.0)
        if not 0 <= frac <= 1:      # json.loads accepts NaN
            raise ConfigError(f"config.extra_edge_fraction: must be in "
                              f"[0, 1], got {frac}")
        try:
            check_generated_n(n)
        except TopologyError as exc:
            raise ConfigError(f"config.topology: {exc}") from exc
        return topo, None, n, seed, float(frac), None
    if isinstance(topo, dict):
        _check_keys(topo, {"edges", "n"}, "config.topology", strict)
        edges_raw = _expect(topo, "edges", list, "config.topology", required=True)
        edges = []
        for i, e in enumerate(edges_raw):
            if (not isinstance(e, (list, tuple)) or len(e) != 2
                    or not all(isinstance(x, int) for x in e)):
                raise ConfigError(
                    f"config.topology.edges[{i}]: expected [src, dst] integers")
            edges.append((e[0], e[1]))
        n = _expect(topo, "n", int, "config.topology",
                    default=max((max(e) for e in edges), default=0))
        if n < 1:
            raise ConfigError(f"config.topology.n: must be at least 1, "
                              f"got {n}")
        try:
            topology = Topology(n=n, edges=tuple(edges))
        except TopologyError as exc:
            raise ConfigError(f"config.topology: {exc}") from exc
        if (stranded := stranded_node(topology)) is not None:
            raise ConfigError(
                f"config.topology: not strongly connected; node {stranded} "
                "is unreachable from or cannot reach node 1")
        return None, tuple(edges), n, 0, 0.0, topology
    raise ConfigError("config.topology: expected a kind string or an object "
                      "with 'edges'")


_TOP_KEYS = {"topology", "n", "topology_seed", "extra_edge_fraction", "k",
             "omega_u", "lambda", "beta_off", "q", "theta0", "controller",
             "reframe", "integrator", "discrete", "seed"}


def parse_config_dict(raw: dict, strict: bool = True) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at top level")
    _check_keys(raw, _TOP_KEYS, "config", strict)

    kind, edges, n, tseed, frac, topology = _parse_topology(raw, strict)

    k = float(_expect(raw, "k", (int, float), "config", required=True))
    if not 0 < k < math.inf:    # json.loads accepts NaN and Infinity
        raise ConfigError(f"config.k: gain must be finite and positive, got {k}")
    if "omega_u" not in raw:
        raise ConfigError("config: missing required key 'omega_u'")
    # the vectors of n entries are checked before a topology is generated
    omega_u = _vector(raw["omega_u"], n, "config.omega_u", minimum=0.0)
    q = _vector(raw.get("q", 0.0), n, "config.q")
    theta0 = _vector(raw.get("theta0", 0.0), n, "config.theta0")
    if topology is None:
        try:
            topology = generate_topology(kind, n, seed=tseed,
                                         extra_edge_fraction=frac)
        except TopologyError as exc:
            raise ConfigError(f"config.topology: {exc}") from exc
    m = topology.m
    lam = _vector(raw.get("lambda", 10.0), m, "config.lambda")

    beta_raw = raw.get("beta_off", FEASIBLE)
    if beta_raw == FEASIBLE:
        beta_off = FEASIBLE
    else:
        beta_off = _vector(beta_raw, m, "config.beta_off")

    controller = _expect(raw, "controller", str, "config", default="reframing")
    if controller not in ("reframing", "proportional"):
        raise ConfigError(f"config.controller: expected 'reframing' or "
                          f"'proportional', got {controller!r}")

    rraw = _section(raw, "reframe")
    _check_keys(rraw, {"mode", "T1", "epsilon", "window"}, "config.reframe",
                strict)
    mode = _expect(rraw, "mode", str, "config.reframe", default="auto")
    numbers = {key: _optional_number(rraw, key, "config.reframe")
               for key in ("T1", "epsilon", "window")}
    try:
        reframe = ReframeSchedule(mode=mode, **numbers)
    except ValueError as exc:   # a rule, its message led by the key
        raise ConfigError(f"config.reframe.{exc}") from exc

    iraw = _section(raw, "integrator")
    _check_keys(iraw, {"method", "dt", "sample_interval", "horizon",
                       "post_horizon"}, "config.integrator", strict)
    method = _expect(iraw, "method", str, "config.integrator", default="exact")
    if method not in ("exact", "rk4", "euler"):
        raise ConfigError(f"config.integrator.method: expected 'exact', 'rk4' "
                          f"or 'euler', got {method!r}")
    path = "config.integrator"
    integrator = IntegratorSettings(
        method=method,
        # the exact flow has no substep, and the discrete mode checks its
        # dt; an unread dt is still echoed into the summary, so it is finite
        dt=_optional_number(iraw, "dt", path, positive=method != "exact",
                            finite=True),
        sample_interval=_optional_number(iraw, "sample_interval", path,
                                         positive=True),
        horizon=_optional_number(iraw, "horizon", path, positive=True),
        post_horizon=_optional_number(iraw, "post_horizon", path,
                                      positive=True))

    draw = _section(raw, "discrete")
    _check_keys(draw, {"enabled", "control_period", "quantization", "capacity",
                       "continue_on_fault"}, "config.discrete", strict)
    control_period = float(_expect(draw, "control_period", (int, float),
                                   "config.discrete", default=1.0))
    if not math.isfinite(control_period):   # echoed even where unread
        raise ConfigError(f"config.discrete: control_period must be finite, "
                          f"got {control_period}")
    discrete = DiscreteSpec(
        enabled=bool(_expect(draw, "enabled", bool, "config.discrete",
                             default=False)),
        control_period=control_period,
        quantization=_expect(draw, "quantization", int, "config.discrete",
                             default=1),
        capacity=_expect(draw, "capacity", int, "config.discrete", default=20),
        continue_on_fault=bool(_expect(draw, "continue_on_fault", bool,
                                       "config.discrete", default=False)))

    return ScenarioConfig(
        n=topology.n, k=k, omega_u=omega_u, topology_kind=kind, edges=edges,
        topology_seed=tseed, extra_edge_fraction=frac, lam=lam,
        beta_off=beta_off, q=q, theta0=theta0, controller=controller,
        reframe=reframe, integrator=integrator, discrete=discrete,
        seed=_expect(raw, "seed", int, "config", default=0),
        parsed_topology=topology)


def _optional_number(raw: dict, key: str, path: str, positive=False,
                     finite=False):
    v = _expect(raw, key, (int, float), path)
    if v is None:
        return None
    if positive and not 0 < v < math.inf:   # json.loads accepts NaN
        raise ConfigError(f"{path}.{key}: must be finite and positive, "
                          f"got {v}")
    if finite and not -math.inf < v < math.inf:
        raise ConfigError(f"{path}.{key}: must be finite, got {v}")
    return float(v)


def parse_config(path, strict: bool = True) -> ScenarioConfig:
    """Load and validate a scenario config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
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
