"""Per-layer spans and counts, recorded from outside the program.

`install` wraps the public functions of each bittide_sim module at every
module attribute that binds them.  The package imports names directly
(`from .dynamics import run`), so `bittide_sim.dynamics.run`,
`bittide_sim.verify.run` and `bittide_sim.cli.run` are separate bindings of
one function, and `verify.ALL_CHECKS` holds the checks in a tuple; all of them
are replaced.  Spans stay in memory with their parent links; a layer's self
time is its span's duration minus the time its child spans cover.
"""

import sys
import time
from collections import defaultdict

# (module, function) -> metric label.  Each call gets a span.
SPANNED = {
    ("graph", "generate_topology"): "graph.generate_topology",
    ("graph", "build_incidence"): "graph.build_incidence",
    ("graph", "is_strongly_connected"): "graph.is_strongly_connected",
    ("config", "parse_config"): "config.parse_config",
    ("spectral", "build_closed_loop"): "spectral.build_closed_loop",
    ("spectral", "metzler_eigenvector"): "spectral.metzler_eigenvector",
    ("spectral", "matrix_exponential"): "spectral.matrix_exponential",
    ("spectral", "predict_omega_ss"): "spectral.predict",
    ("spectral", "predict_beta_ss"): "spectral.predict",
    ("spectral", "steady_state_correction"): "spectral.predict",
    ("dynamics", "run"): "dynamics.run",
    ("dynamics", "init_state"): "dynamics.init_state",
    ("dynamics", "exact_flow_operators"): "dynamics.exact_flow_operators",
    ("dynamics", "observe"): "dynamics.observe",
    ("controller", "auto_reframe_trigger"): "controller.auto_reframe_trigger",
    ("controller", "node_views"): "controller.node_views",
    ("framesim", "run_discrete"): "framesim.run_discrete",
    ("framesim", "discrete_step"): "framesim.discrete_step",
    ("verify", "run_battery"): "verify.run_battery",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_run"): "cli.cmd_run",
    ("cli", "cmd_verify"): "cli.cmd_verify",
    ("cli", "trace_csv"): "cli.trace_csv",
}

# Called once per step or per node fire: counted without a span, so their
# time stays in the caller's self time and the tracing cost stays small.
COUNTED = {
    ("dynamics", "step"): "dynamics.step",
    ("controller", "proportional_correction"): "controller.proportional_correction",
}

PACKAGE = "bittide_sim"


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _incidence(tr, args, kwargs, inc):
    n, m = inc.S.shape
    # dense S, D and B of float64; computed from the shapes, not measured
    tr.totals["graph.incidence_bytes"] += 3 * n * m * 8


def _auto_run(tr, schedule, trace):
    if schedule is not None and schedule.mode == "auto":
        tr.totals["controller.auto_runs"] += 1
        tr.totals["controller.trigger_fired"] += trace.reframe_time is not None


def _continuous_run(tr, args, kwargs, trace):
    tr.totals["dynamics.samples"] += len(trace.times)
    _auto_run(tr, _arg(args, kwargs, 2, "schedule"), trace)


def _discrete_run(tr, args, kwargs, trace):
    tr.totals["framesim.faults"] += len(trace.faults)
    _auto_run(tr, _arg(args, kwargs, 0, "scenario").reframe, trace)


def _step(tr, args, kwargs, state):
    if _arg(args, kwargs, 4, "method", "exact") == "exact":
        tr.totals["dynamics.exact_steps"] += 1


def _battery(tr, args, kwargs, report):
    tr.totals["verify.scenarios"] += (len(report["scenarios"])
                                      + len(report["negative_controls"]))
    # reported for information only: negative controls are meant to fail
    ratios = [v["residual"] / v["tolerance"]
              for row in report["scenarios"] for v in row["verdicts"]
              if v["residual"] is not None and v["tolerance"]]
    worst = tr.totals["verify.worst_residual_ratio"]
    tr.totals["verify.worst_residual_ratio"] = max([worst] + ratios)


def _csv(tr, args, kwargs, text):
    tr.totals["cli.trace_bytes"] += len(text)


def _cmd_run(tr, args, kwargs, rc):
    tr.totals["scenarios_run"] += 1


HOOKS = {
    "graph.build_incidence": _incidence,
    "dynamics.run": _continuous_run,
    "framesim.run_discrete": _discrete_run,
    "dynamics.step": _step,
    "verify.run_battery": _battery,
    "cli.trace_csv": _csv,
    "cli.cmd_run": _cmd_run,
}

TOTALS = ("graph.incidence_bytes", "dynamics.samples", "dynamics.exact_steps",
          "controller.trigger_fired", "controller.auto_runs", "framesim.faults",
          "verify.scenarios", "verify.worst_residual_ratio", "cli.trace_bytes")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []                  # [label, parent index, start, end]
        self.calls = defaultdict(int)    # counted-only functions
        self.totals = defaultdict(float)
        self._stack = []

    def spanned(self, label, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, \
            HOOKS.get(label)

        def wrapper(*args, **kwargs):
            span = [label, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, label, fn):
        calls, hook = self.calls, HOOKS.get(label)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def self_times(self):
        """(calls, self seconds) per span label; their self times sum to the
        total duration of the root spans."""
        covered = [0.0] * len(self.spans)
        for label, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        for (label, _, start, end), child in zip(self.spans, covered):
            calls[label] += 1
            self_s[label] += end - start - child
        return calls, self_s

    def metrics(self, labels) -> dict:
        calls, self_s = self.self_times()
        out = {}
        for label in labels:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        for label in COUNTED.values():
            out[f"{label}.calls"] = self.calls[label]
        out.update({name: self.totals[name] for name in TOTALS})
        scenarios = self.totals["verify.scenarios"] + self.totals["scenarios_run"]
        out["spectral.solves_per_scenario"] = (
            calls["spectral.metzler_eigenvector"] / scenarios if scenarios else 0.0)
        exact = self.totals["dynamics.exact_steps"]
        # base: exact steps; each flow-operator call is a cache miss
        out["dynamics.flow_cache_hit_ratio"] = (
            1.0 - calls["dynamics.exact_flow_operators"] / exact if exact else 0.0)
        return out


def _label_table():
    """(module, function) -> (label, spanned?) including the battery checks."""
    verify = sys.modules[f"{PACKAGE}.verify"]
    table = {key: (label, True) for key, label in SPANNED.items()}
    for check in verify.ALL_CHECKS:
        suffix = check.__name__.removeprefix("check_")
        table[("verify", check.__name__)] = (f"verify.check.{suffix}", True)
    table.update({key: (label, False) for key, label in COUNTED.items()})
    return table


def span_labels() -> list:
    """Span labels in a stable order, each once."""
    return list(dict.fromkeys(label for label, spanned in _label_table().values()
                              if spanned))


def install(tracer: Tracer):
    """Wrap every binding of the traced functions; returns the undo function."""
    replacement = {}    # id(original) -> (original, wrapper)
    for (module, name), (label, spanned) in _label_table().items():
        fn = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
        wrap = tracer.spanned if spanned else tracer.counted
        replacement[id(fn)] = (fn, wrap(label, fn))

    def swap(value):
        hit = replacement.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    undo, bound = [], set()
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                changed = any(a is not b for a, b in zip(new, value))
            else:
                new = swap(value)
                changed = new is not value
            if changed:
                bound.update(id(v) for v in (value if isinstance(value, tuple)
                                             else (value,)))
                undo.append((mod, attr, value))
                setattr(mod, attr, new)

    def restore():
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)

    missing = [fn.__qualname__ for key, (fn, _) in replacement.items()
               if key not in bound]
    if missing:
        restore()
        raise RuntimeError(f"no module binds {missing}")
    return restore
