"""Directed network topologies and their incidence operators.

A topology is a directed multigraph: n nodes (1-indexed everywhere a human
sees them) and an ordered edge list whose order fixes the column indices of
every m-column matrix downstream (traces, reports, link constants).
"""

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TOPOLOGY_KINDS = ("ring", "bidirectional-ring", "complete", "random-strong")
# the most nodes of a generated topology: a run forms dense n x n matrices
# (about 1.3 GB at n = 4096), so a larger n is refused before anything of
# size n is built.  An edge list needs no bound: a strongly connected one
# has at least n edges.
MAX_NODES = 4096
# the most edges of a generated topology, counted from n, the kind and the
# extra edge fraction before any edge is built: `complete` at n = 1024 has
# 1047552, and random-strong at n = 4096 with m near 11 n about 46000
MAX_EDGES = 2**20


class TopologyError(ValueError):
    """Raised for malformed topologies (bad index, self-loop, n < 2) and for
    a closed loop built on one that is not strongly connected."""


@dataclass(frozen=True)
class Topology:
    """Directed multigraph with 1-indexed nodes and an ordered edge list."""

    n: int
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(s), int(d)) for s, d in self.edges))
        if self.n < 1:
            raise TopologyError(f"node count must be positive, got {self.n}")
        for idx, (src, dst) in enumerate(self.edges):
            if not (1 <= src <= self.n) or not (1 <= dst <= self.n):
                raise TopologyError(
                    f"edge {idx + 1} = ({src}, {dst}) references a node outside 1..{self.n}"
                )
            if src == dst:
                raise TopologyError(
                    f"edge {idx + 1} = ({src}, {dst}) is a self-loop; a buffer from a "
                    "node to itself has no meaning in this model"
                )

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class IncidenceSet:
    """The 0-indexed source and destination node of every edge, and the
    incidence operators built on them.

    S, D and B = S - D are the dense n x m source, destination and signed
    incidence matrices, built on demand: they define the operators, which
    never form them.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def m(self) -> int:
        return len(self.src)

    def edge_diff(self, x: np.ndarray) -> np.ndarray:
        """B^T x: x at each edge's source minus x at its destination, along
        the last axis of x."""
        return np.take(x, self.src, axis=-1) - np.take(x, self.dst, axis=-1)

    def in_sum(self, y: np.ndarray) -> np.ndarray:
        """D y: the sum of y over each node's incoming edges."""
        return np.bincount(self.dst, y, self.n)

    def rate_matrix(self) -> np.ndarray:
        """D B^T, the closed loop's rate matrix at unit gain: one per edge
        from j into i, minus i's in-degree on the diagonal.  Parallel edges
        each count, and every entry is an integer."""
        M = np.zeros((self.n, self.n))
        np.add.at(M, (self.dst, self.src), 1.0)
        np.add.at(M, (self.dst, self.dst), -1.0)
        return M

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """Each node's in-degree, its count in dst."""
        return np.bincount(self.dst, minlength=self.n)

    def max_in_degree(self) -> int:
        return int(self.in_degrees.max(initial=0))

    @cached_property
    def ends(self) -> np.ndarray:
        """(2, m): src over dst; a `take` at it gives both ends of an edge."""
        return np.stack([self.src, self.dst])

    def topology(self) -> Topology:
        """The edges as a 1-indexed Topology, in edge order."""
        return Topology(self.n, tuple(zip(*(self.ends + 1).tolist())))

    @cached_property
    def in_blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per in-degree d: its nodes and a (nodes x d) array whose rows are
        their incoming edge indices in edge order; built once per incidence.
        One stable sort of dst lists every node's in-edges, node after node,
        each node's in edge order."""
        deg = self.in_degrees
        order = np.argsort(self.dst, kind="stable")
        starts = np.cumsum(deg) - deg
        blocks = []
        for d in sorted(set(deg.tolist())):
            nodes = np.flatnonzero(deg == d)
            blocks.append((nodes, order[starts[nodes, None] + np.arange(d)]))
        return blocks

    def _dense(self, nodes: np.ndarray) -> np.ndarray:
        M = np.zeros((self.n, self.m))
        M[nodes, np.arange(self.m)] = 1.0
        return M

    @property
    def S(self) -> np.ndarray:
        return self._dense(self.src)

    @property
    def D(self) -> np.ndarray:
        return self._dense(self.dst)

    @property
    def B(self) -> np.ndarray:
        return self.S - self.D


def joined_incidence(incs) -> IncidenceSet:
    """The incidences as one graph, their disjoint union: each one's nodes
    and edges follow those of the ones before it, so one `edge_diff` of
    their node values laid end to end gives every edge of every one."""
    sizes = np.array([inc.n for inc in incs])
    shift = np.repeat(np.cumsum(sizes) - sizes, [inc.m for inc in incs])
    return IncidenceSet(n=int(sizes.sum()),
                        src=np.concatenate([inc.src for inc in incs]) + shift,
                        dst=np.concatenate([inc.dst for inc in incs]) + shift)


def edge_endpoints(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """0-indexed source and destination node of every edge, in edge order."""
    ends = np.array(topology.edges, dtype=np.intp).reshape(topology.m, 2) - 1
    return ends[:, 0].copy(), ends[:, 1].copy()


def build_incidence(topology: Topology) -> IncidenceSet:
    """The topology's edges as index arrays; no n x m matrix is formed."""
    src, dst = edge_endpoints(topology)
    return IncidenceSet(n=topology.n, src=src, dst=dst)


def stranded_node(topology: Topology) -> int | None:
    """The smallest 1-indexed node that node 1 does not reach or that does
    not reach node 1, or None when every node reaches every other along
    directed paths.  Two reachability passes from node 1, one on the graph
    and one on its reverse; only the nodes on edges are visited: O(m),
    whatever n."""
    both = None
    for edges in (topology.edges, [(d, s) for s, d in topology.edges]):
        adj = defaultdict(list)
        for src, dst in edges:
            adj[src].append(dst)
        seen, stack = {1}, [1]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        both = seen if both is None else both & seen
    if len(both) == topology.n:
        return None
    # within len(both) + 1 of node 1
    return next(i for i in itertools.count(1) if i not in both)


def is_strongly_connected(topology: Topology) -> bool:
    """True iff every node reaches every other along directed paths."""
    return stranded_node(topology) is None


def _non_ring_pairs(n: int, idx: np.ndarray) -> list[tuple[int, int]]:
    """The (i, j) of each index in idx among the n (n - 2) non-ring pairs in
    row-major order: node i has n - 2 of them, every j but i and its ring
    successor.  The map is increasing, so sorted indices give sorted pairs."""
    i, rank = np.divmod(idx, n - 2)
    i += 1
    succ = i % n + 1
    j = rank + 1
    j += j >= np.minimum(i, succ)
    j += j >= np.maximum(i, succ)
    return list(zip(i.tolist(), j.tolist()))


def check_generated_n(n: int):
    """Raise TopologyError unless n is a node count that generate_topology
    takes: 2..MAX_NODES."""
    if not 2 <= n <= MAX_NODES:
        raise TopologyError(f"generated topologies need 2 <= n <= "
                            f"{MAX_NODES}, got n = {n}")


def generated_edge_count(kind: str, n: int,
                         extra_edge_fraction: float = 0.0) -> int:
    """The edge count of `generate_topology(kind, n, ...)`, from the
    arguments alone; raises TopologyError for an unknown kind or a fraction
    outside [0, 1]."""
    if kind not in TOPOLOGY_KINDS:
        raise TopologyError(f"unknown topology kind {kind!r}, expected one of {TOPOLOGY_KINDS}")
    if kind == "ring" or (kind == "bidirectional-ring" and n == 2):
        return n
    if kind == "bidirectional-ring":
        return 2 * n
    if kind == "complete":
        return n * (n - 1)
    if not 0.0 <= extra_edge_fraction <= 1.0:
        raise TopologyError(
            f"extra_edge_fraction must be in [0, 1], got {extra_edge_fraction}"
        )
    return n + int(extra_edge_fraction * n * (n - 2))


def generate_topology(kind: str, n: int, seed: int = 0,
                      extra_edge_fraction: float = 0.0) -> Topology:
    """Generate a strongly connected topology, deterministic in the seed.

    kinds:
      ring                directed cycle 1 -> 2 -> ... -> n -> 1
      bidirectional-ring  both directions of each ring link
      complete            all ordered pairs
      random-strong       directed ring plus floor(extra_edge_fraction * n * (n-2))
                          distinct extra edges drawn uniformly from the non-ring pairs
    """
    check_generated_n(n)
    m = generated_edge_count(kind, n, extra_edge_fraction)
    if m > MAX_EDGES:
        raise TopologyError(f"a generated {kind} topology on n = {n} nodes "
                            f"has {m} edges; at most {MAX_EDGES} are allowed")
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    if kind == "ring":
        edges = ring
    elif kind == "bidirectional-ring":
        if n == 2:
            edges = [(1, 2), (2, 1)]
        else:
            edges = []
            for src, dst in ring:
                edges.append((src, dst))
                edges.append((dst, src))
    elif kind == "complete":
        edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    else:  # random-strong
        picks = random.Random(seed).sample(range(n * (n - 2)), m - n)
        picks = np.sort(np.array(picks, dtype=np.int64))
        edges = ring + _non_ring_pairs(n, picks)
    return Topology(n=n, edges=tuple(edges))
