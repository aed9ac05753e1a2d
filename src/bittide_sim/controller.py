"""Per-node proportional and reframing control laws.

Each node sees only the occupancies of its own incoming buffers, its local
offsets, and its own frequency offset q_i.  NodeView is that boundary: the
per-node law takes a view and nothing else, and the batched law gives each
node a row of exactly its view's edges, so no node reads another's state.
"""

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import IncidenceSet, Topology, edge_endpoints

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
               q: np.ndarray, nodes=None) -> list[NodeView]:
    """Partition a global occupancy vector into per-node views, one for each
    of the 0-indexed `nodes` in order (default: every node).  A node's edges
    are those whose destination it is, in edge order."""
    _, dst = edge_endpoints(topology)
    if nodes is None:
        nodes = range(topology.n)
    views = []
    for i in nodes:
        edges = np.flatnonzero(dst == i)
        views.append(NodeView(node=int(i) + 1,
                              in_edges=tuple((edges + 1).tolist()),
                              occupancies=beta[edges], offsets=beta_off[edges],
                              q=float(q[i])))
    return views


def proportional_correction(view: NodeView, k: float) -> float:
    """c_i = k * sum of relative occupancies on incoming links, plus q_i."""
    return k * float(np.sum(view.occupancies - view.offsets)) + view.q


def proportional_corrections(in_blocks, beta, beta_off, q, k, due, out):
    """proportional_correction of each node in the `due` mask, into out.  An
    `IncidenceSet.in_blocks` row holds its node's in-edges in NodeView order,
    and a row-wise sum reduces it as np.sum reduces the view: bit for bit.
    Every node's sum is formed, one reduction per block, and only the due
    nodes take theirs.  k is a float, or one row of it per node."""
    rel = beta - beta_off
    sums = np.empty(out.shape)
    for nodes, edges in in_blocks:
        sums[nodes] = np.add.reduce(rel[edges], axis=1)
    sums *= k
    sums += q
    np.copyto(out, sums, where=due)


def auto_reframe_trigger(t: float, t0: float, last_unstable: float,
                         window: float) -> bool:
    """True at a row at time t once the correction has been stable over the
    trailing window: a full window has passed since the first row, at t0,
    and the last row whose correction deviates from this row's by more than
    epsilon, at last_unstable, lies before the window.  The window holds the
    rows at or after (t - window) - 1e-12."""
    return not t - t0 < window and last_unstable < (t - window) - 1e-12


class StabilityDetector:
    """The auto trigger's streaming state over a run's rows, fed in order.

    For the correction c of the last row fed it keeps `last`, the time of
    the last row whose correction deviates from c by more than epsilon in
    some entry (a NaN deviates): -inf once no such row can lie in the window
    of a row that holds c, inf when c deviates from itself.  While c is held
    `last` stays.  When c changes, the detector reads the row before: when
    the correction oscillates, that row deviates, in O(n).  Only when it
    does not does it read the rest of the window.  Rows are fed in runs
    that hold one correction, as a discrete loop holds it between fires.
    """

    def __init__(self, epsilon: float, window: float):
        self.epsilon, self.window = epsilon, window
        self.t0 = None                # the first row's time
        self.c = None                 # the last row's correction, as bytes
        self.last = math.inf

    def first(self, times, corrections, start: int, end: int,
              past=None) -> int:
        """Feed the rows [start, end) of (times, corrections), which hold one
        correction.  They follow the rows fed before: the rows above
        `start`, and before those the rows of `past`, a `CorrectionHistory`.
        Returns the first of them at which the trigger holds, or end, and
        leaves the state at that row.

        Within the run the window only moves on, so once the trigger holds
        it keeps holding: it is asked at the run's last row, and bisected
        for the first only when it holds there."""
        if self.t0 is None:
            self.t0 = (past.times if past is not None and len(past)
                       else times)[0]
        # equal bits deviate from the same rows: a NaN row already has
        # `last` inf
        c = corrections[start].tobytes()
        if c != self.c:
            self.c = c
            self.last = self._last_unstable(times, corrections, start, past)
        lo, hi = start, end - 1
        if not auto_reframe_trigger(times[hi], self.t0, self.last, self.window):
            return end
        while lo < hi:
            mid = (lo + hi) // 2
            if auto_reframe_trigger(times[mid], self.t0, self.last,
                                    self.window):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _last_unstable(self, times, corrections, row, past) -> float:
        """`last` for the correction of row `row`."""
        c, epsilon = corrections[row], self.epsilon
        lo = max(row - 1, 0)
        dev = np.abs(corrections[lo:row + 1] - c).max(axis=1)
        if not dev[-1] <= epsilon:          # a NaN deviates
            return math.inf
        if not dev[0] <= epsilon:
            return times[lo]
        # the rows of the window before those two, in the fed rows and then
        # in the past
        t_lo = (times[row] - self.window) - 1e-12
        parts = [(times, corrections, lo)]
        if past is not None:
            parts.append((past.times, past.corrections, len(past)))
        for ts, cs, end in parts:
            start = bisect.bisect_left(ts, t_lo, 0, end)
            dev = np.abs(cs[start:end] - c)
            if dev.size and not dev.max() <= epsilon:
                unstable = ~(dev <= epsilon).all(axis=1)
                return ts[start + int(np.flatnonzero(unstable)[-1])]
            if start:
                break       # the window starts in these rows
        return -math.inf


class CorrectionHistory:
    """The run's rows in preallocated arrays that grow when full: each
    sample's time, the correction c the nodes emit and, for `width` > 0, one
    more row of values (the phases of a continuous run, the measured
    occupancies of a discrete one).  `shape` and `width` are a row's length,
    or its shape when a sample records a block of rows; `size` is the
    samples a run expects.

    Recording is amortized O(n + width) per row, and `times`, `corrections`
    and `rows` are views of the filled prefix, so the auto trigger's
    detector reads the history without a copy, and a trace can keep them.
    """

    def __init__(self, shape, width=0, size: int = 64):
        self._t = np.empty(size)
        self._c = np.empty((size, *np.atleast_1d(shape)))
        self._rows = np.empty((size, *np.atleast_1d(width)))
        self._len = 0

    def __len__(self):
        return self._len

    def extend(self, times, c: np.ndarray, rows: np.ndarray | None = None):
        """Append a sample at each of `times` in one step: c (and rows) is
        one row for all of them, or one row each."""
        end = self._len + len(times)
        self._reserve(end)
        self._t[self._len:end] = times
        self._c[self._len:end] = c
        if rows is not None:
            self._rows[self._len:end] = rows
        self._len = end

    def _reserve(self, end: int):
        if end > len(self._t):
            size = max(end, 2 * len(self._t))
            self._t, self._c, self._rows = (_grown(a, self._len, size)
                                            for a in (self._t, self._c,
                                                      self._rows))

    @property
    def times(self) -> np.ndarray:
        return self._t[:self._len]

    @property
    def corrections(self) -> np.ndarray:
        return self._c[:self._len]

    @property
    def rows(self) -> np.ndarray:
        return self._rows[:self._len]


def _grown(a: np.ndarray, filled: int, size: int) -> np.ndarray:
    grown = np.empty((size,) + a.shape[1:])
    grown[:filled] = a[:filled]
    return grown


@dataclass(frozen=True)
class ReframeSchedule:
    """When the single reframe fires.

    fixed-time: at T1, one time for all nodes or one per node.  auto: at the
    first sample where the correction has been epsilon-stable for a full
    window.  A run's `OneShotReset` fills the unset fields its mode reads.
    """

    mode: str = "auto"            # fixed-time | auto
    T1: float | np.ndarray | None = None
    epsilon: float | None = None
    window: float | None = None

    def __post_init__(self):
        # an error's message starts with the field's name
        if self.mode not in ("fixed-time", "auto"):
            raise ValueError(f"mode: expected 'fixed-time' or 'auto', got "
                             f"{self.mode!r}")
        T1, eps, window = self.T1, self.epsilon, self.window
        if T1 is not None and not np.isfinite(np.asarray(T1, float)).all():
            raise ValueError(f"T1: must be finite, got {T1}")
        if eps is not None and not 0 <= eps < math.inf:
            raise ValueError(f"epsilon: must be finite and >= 0, got {eps}")
        if window is not None and not 0 < window < math.inf:
            raise ValueError(f"window: must be finite and positive, got "
                             f"{window}")


class OneShotReset:
    """A run's one reset: each node freezes the correction it is emitting into
    its offset q exactly once, at its T1 or when the auto trigger sees a stable
    correction.

    The reset runs both modes' loop, `drive`: it records the rows a mode
    advances through (into `history`, each row's `mode` into `modes`), asks
    `firing(t)` which nodes reset on the last, and `freeze`s those.  `time`
    is set once the last node has reset.  A sample's correction has the
    shape of params.q, `width` is the length (or shape) of the extra row
    each sample records, and `samples` the rows a run expects to record
    besides the reset's own.
    """

    def __init__(self, schedule: ReframeSchedule | None, params,
                 inc: IncidenceSet, default_T1: float | None, width: int = 0,
                 samples: int = 64):
        self.modes = []
        self.done = np.zeros(inc.n, dtype=bool)
        self.events = []              # sorted fixed-time T1s not yet reached
        self.mode = PRE_REFRAME
        self.time = None
        # a Python flag, so a step on which nothing fires adds no reduction
        self.pending = schedule is not None
        self.detector = None          # an auto schedule's StabilityDetector
        if self.pending and schedule.mode == "fixed-time":
            T1 = default_T1 if schedule.T1 is None else schedule.T1
            self._T1 = np.broadcast_to(np.asarray(T1, dtype=float), (inc.n,))
            self.events = sorted({float(t) for t in self._T1})
        elif self.pending:
            # unset, they follow the correction scale: epsilon = 1e-9
            # ||omega_u||_inf and window = 10/(k max in-degree); a NaN
            # omega_u gives a NaN epsilon, which never fires
            epsilon, window = schedule.epsilon, schedule.window
            if epsilon is None:
                epsilon = 1e-9 * float(np.abs(params.omega_u).max())
            if window is None:
                deg = max(inc.max_in_degree(), 1)
                window = 10.0 / (params.k * deg) if params.k > 0 else 10.0
            self.detector = StabilityDetector(epsilon, window)
        # each reframe time adds at most two rows: a sample at its instant,
        # where a loop inserts one, and the post row
        reframes = len(self.events) or int(self.pending)
        self.history = CorrectionHistory(params.q.shape, width,
                                         samples + 2 * reframes)

    def drive(self, params, advance):
        """Run a mode to its end and return its last params.  `advance(params,
        firing)` gives the rows up to the next decision, as (times,
        corrections, rows), or None once the run is over; firing is the mask
        of the nodes frozen on the last row it gave, or None.  The run's
        first row, and the post row of each freeze, lead the next block.
        The rows are recorded, `firing` is asked on the last, and the nodes
        it names are frozen into params.q; at the end `finish` warns if the
        schedule never fired.  An error raised by advance ends the run
        unfinished."""
        firing = None
        while (block := advance(params, firing)) is not None:
            self.record_rows(*block)
            firing = self.firing(block[0][-1])
            if firing is not None:
                params = params.with_q(self.freeze(params.q, firing))
        self.finish()
        return params

    def record_rows(self, times, c: np.ndarray, rows: np.ndarray):
        """Record a sample at each of `times`: c is one correction row for
        all of them, or one row each."""
        self.history.extend(times, c, rows)
        self.modes.extend([self.mode] * len(times))

    def firing(self, t: float) -> np.ndarray | None:
        """Mask of the nodes that reset on the sample just recorded at t, or
        None.  Fixed-time: every node whose T1 is reached; auto: every node,
        once the trigger finds the history up to this sample stable."""
        if not self.pending:
            return None
        past, last = self.history, len(self.history) - 1
        if self._first(past.times, past.corrections, last, last + 1) > last:
            return None
        if not self.events:
            return ~self.done
        self.events = [e for e in self.events if t < e - 1e-12]
        return ~self.done & (t >= self._T1 - 1e-12)

    def cut(self, times, corrections, start: int, end: int) -> int | None:
        """Where a mode's coming samples at `times` (non-decreasing), with
        one correction row each, end early: rows [start, end) of them hold
        one correction and follow the rows before start, which follow the
        history.  Returns the count of samples through the first of those
        rows on which the schedule fires, or None.  `drive` records the
        samples an advance keeps and asks `firing` on the last, so an
        advance passes every row but that one."""
        if not self.pending or end <= start:
            return None
        first = self._first(times, corrections, start, end, self.history)
        return first + 1 if first < end else None

    def _first(self, times, corrections, start: int, end: int,
               past=None) -> int:
        """The first of the rows [start, end) on which the pending schedule
        fires, or end: the first that reaches the next fixed T1, or at which
        the auto trigger holds (see `StabilityDetector.first`)."""
        if self.events:
            return bisect.bisect_left(times, self.events[0] - 1e-12, start,
                                      end)
        return self.detector.first(times, corrections, start, end, past)

    def freeze(self, q: np.ndarray, firing: np.ndarray) -> np.ndarray:
        """q with the firing nodes' last recorded correction frozen in, in
        each row of a (K, n) q its own; a node frozen a second time raises
        ReframeError."""
        again = np.flatnonzero(firing & self.done)
        if again.size:
            raise ReframeError(f"node {again[0] + 1} already reframed; "
                               "the reset is one-shot")
        q = q.copy()
        q[..., firing] = self.history.corrections[-1][..., firing]
        self.done |= firing
        count, n = int(self.done.sum()), len(self.done)
        if count == n:
            self.pending = False
            self.mode, self.time = POST_REFRAME, float(self.history.times[-1])
        else:
            self.mode = f"staggered-{count}/{n}"
        return q

    def finish(self):
        """Warn once if the run ended with its schedule unfired: an auto
        trigger that never fired, or a node whose fixed T1 was never reached.
        The warning names the caller of the mode's run, which calls `drive`."""
        if not self.pending:
            return
        if self.detector is not None:
            warnings.warn(f"auto reframe never fired: epsilon = "
                          f"{self.detector.epsilon:.3g}, window = "
                          f"{self.detector.window:.6g}", stacklevel=4)
            return
        i = int(np.flatnonzero(~self.done)[0])
        warnings.warn(f"fixed-time reframe never fired: node {i + 1} has "
                      f"T1 = {self._T1[i]:.6g}, past the last sample at "
                      f"t = {self.history.times[-1]:.6g}", stacklevel=4)
