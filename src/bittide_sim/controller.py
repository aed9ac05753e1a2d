"""Per-node proportional and reframing control laws.

Each node sees only the occupancies of its own incoming buffers, its local
offsets, and its own frequency offset q_i.  NodeView is that boundary: the
per-node law takes a view and nothing else, and the batched law gives each
node a row of exactly its view's edges, so no node reads another's state.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import IncidenceSet, Topology, build_incidence

PRE_REFRAME = "pre-reframe"
POST_REFRAME = "post-reframe"


class ReframeError(RuntimeError):
    """Raised on a second reframe; the reset happens exactly once."""


@dataclass(frozen=True)
class NodeView:
    """What one node's controller is allowed to observe."""

    node: int                     # 1-indexed
    in_edges: tuple               # 1-indexed edge ids, config order
    occupancies: np.ndarray       # measured beta for those edges
    offsets: np.ndarray           # beta_off for those edges
    q: float = 0.0


def node_views(topology: Topology, beta: np.ndarray, beta_off: np.ndarray,
               q: np.ndarray, nodes=None, in_edges=None) -> list[NodeView]:
    """Partition a global occupancy vector into per-node views, one for each
    of the 0-indexed `nodes` in order (default: every node).

    in_edges is the topology's `IncidenceSet.in_edges`; a caller that asks
    for views on every step passes it, and None builds it here."""
    if in_edges is None:
        in_edges = build_incidence(topology).in_edges
    if nodes is None:
        nodes = range(topology.n)
    return [
        NodeView(node=int(i) + 1,
                 in_edges=tuple((in_edges[i] + 1).tolist()),
                 occupancies=beta[in_edges[i]],
                 offsets=beta_off[in_edges[i]],
                 q=float(q[i]))
        for i in nodes
    ]


def proportional_correction(view: NodeView, k: float) -> float:
    """c_i = k * sum of relative occupancies on incoming links, plus q_i."""
    return k * float(np.sum(view.occupancies - view.offsets)) + view.q


def proportional_corrections(in_blocks, beta, beta_off, q, k, due, out):
    """proportional_correction of each node in the `due` mask, into out.  An
    `IncidenceSet.in_blocks` row holds its node's in-edges in NodeView order,
    and a row-wise sum reduces it as np.sum reduces the view: bit for bit."""
    rel = beta - beta_off
    for nodes, edges in in_blocks:
        fire = due[nodes]
        firing = nodes[fire]
        out[firing] = k * rel[edges[fire]].sum(axis=1) + q[firing]


def auto_reframe_trigger(times: np.ndarray, corrections: np.ndarray,
                         epsilon: float, window: float) -> bool:
    """True once the correction has been stable over the trailing window.

    Stability means max over the window of ||c(t) - c(t_end)||_inf <= epsilon.
    Returns False while less than a full window of samples has elapsed.
    times must be non-decreasing: the window's first row is found by binary
    search, so a step reads only the window, not the whole history.
    """
    if len(times) == 0 or times[-1] - times[0] < window:
        return False
    t_lo = times[-1] - window
    start = np.searchsorted(times, t_lo - 1e-12, side="left")
    dev = np.abs(corrections[start:] - corrections[-1]).max()
    return bool(dev <= epsilon)


class CorrectionHistory:
    """The run's (t, c) rows in preallocated arrays that double when full.

    Appending is amortized O(n), and `times`/`corrections` are views of the
    filled prefix, so the auto trigger reads the history without a copy.
    """

    def __init__(self, n: int):
        self._t = np.empty(64)
        self._c = np.empty((64, n))
        self._len = 0

    def __len__(self):
        return self._len

    def append(self, t: float, c: np.ndarray):
        if self._len == len(self._t):
            grown_t = np.empty(2 * self._len)
            grown_c = np.empty((2 * self._len, self._c.shape[1]))
            grown_t[:self._len] = self._t
            grown_c[:self._len] = self._c
            self._t, self._c = grown_t, grown_c
        self._t[self._len] = t
        self._c[self._len] = c
        self._len += 1

    @property
    def times(self) -> np.ndarray:
        return self._t[:self._len]

    @property
    def corrections(self) -> np.ndarray:
        return self._c[:self._len]


@dataclass(frozen=True)
class ReframeSchedule:
    """When the single reframe fires.

    fixed-time: at T1, one time for all nodes or one per node.  auto: at the
    first sample where the correction has been epsilon-stable for a full
    window.  Defaults follow the correction
    scale: epsilon = 1e-9 * ||omega_u||_inf, window = 10/(k * max in-degree).
    """

    mode: str = "auto"            # fixed-time | auto
    T1: float | np.ndarray | None = None
    epsilon: float | None = None
    window: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed-time", "auto"):
            raise ValueError(f"unknown reframe mode {self.mode!r}")

    def resolved(self, params, inc: IncidenceSet,
                 default_T1: float | None = None) -> "ReframeSchedule":
        """Fill unset fields from the system scale."""
        T1 = self.T1
        if self.mode == "fixed-time" and T1 is None:
            T1 = default_T1
        eps = self.epsilon
        if eps is None:
            eps = 1e-9 * float(np.abs(params.omega_u).max())
        window = self.window
        if window is None:
            deg = max(inc.max_in_degree(), 1)
            window = 10.0 / (params.k * deg) if params.k > 0 else 10.0
        return ReframeSchedule(mode=self.mode, T1=T1, epsilon=eps, window=window)


class OneShotReset:
    """A run's one reset: each node freezes the correction it is emitting into
    its offset q exactly once, at its T1 or when the auto trigger sees a stable
    correction.

    Both run loops append each sample to `history`, ask `firing(t)` which
    nodes reset on it, `freeze` those, and record the post row, labelling
    every row with `mode`.  `time` is set once the last node has reset.
    """

    def __init__(self, schedule: ReframeSchedule | None, params,
                 inc: IncidenceSet, default_T1: float | None):
        self.history = CorrectionHistory(inc.n)
        self.done = np.zeros(inc.n, dtype=bool)
        self.events = []              # sorted fixed-time T1s not yet reached
        self.mode = PRE_REFRAME
        self.time = None
        self.schedule = (schedule if schedule is None
                         else schedule.resolved(params, inc, default_T1))
        # a Python flag, so a step on which nothing fires adds no reduction
        self.pending = schedule is not None
        if self.pending and self.schedule.mode == "fixed-time":
            self._T1 = np.broadcast_to(np.asarray(self.schedule.T1, dtype=float),
                                       (inc.n,))
            self.events = sorted({float(t) for t in self._T1})

    def firing(self, t: float) -> np.ndarray | None:
        """Mask of the nodes that reset on the sample just recorded at t, or
        None.  Fixed-time: every node whose T1 is reached; auto: every node,
        once the trigger finds the history up to this sample stable."""
        if not self.pending:
            return None
        if self.events:
            if t < self.events[0] - 1e-12:
                return None
            self.events = [e for e in self.events if t < e - 1e-12]
            return ~self.done & (t >= self._T1 - 1e-12)
        if auto_reframe_trigger(self.history.times, self.history.corrections,
                                self.schedule.epsilon, self.schedule.window):
            return ~self.done
        return None

    def freeze(self, q: np.ndarray, firing: np.ndarray) -> np.ndarray:
        """q with the firing nodes' last recorded correction frozen in; a node
        frozen a second time raises ReframeError."""
        again = np.flatnonzero(firing & self.done)
        if again.size:
            raise ReframeError(f"node {again[0] + 1} already reframed; "
                               "the reset is one-shot")
        q = q.copy()
        q[firing] = self.history.corrections[-1][firing]
        self.done |= firing
        count, n = int(self.done.sum()), len(self.done)
        if count == n:
            self.pending = False
            self.mode, self.time = POST_REFRAME, float(self.history.times[-1])
        else:
            self.mode = f"staggered-{count}/{n}"
        return q

    def finish(self):
        """Warn once if the run ended with its auto schedule unfired."""
        if self.pending and self.schedule.mode == "auto":
            warnings.warn(f"auto reframe never fired: epsilon = "
                          f"{self.schedule.epsilon:.3g}, window = "
                          f"{self.schedule.window:.6g}", stacklevel=3)
