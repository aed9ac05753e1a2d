"""Directed network topologies and their incidence matrices.

A topology is a directed multigraph: n nodes (1-indexed everywhere a human
sees them) and an ordered edge list whose order fixes the column indices of
every m-column matrix downstream (traces, reports, link constants).
"""

import random
from dataclasses import dataclass, field

import numpy as np

TOPOLOGY_KINDS = ("ring", "bidirectional-ring", "complete", "random-strong")


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
    """Source (S), destination (D) and signed (B = S - D) incidence matrices,
    and the 0-indexed source and destination node of every edge."""

    S: np.ndarray
    D: np.ndarray
    B: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def m(self) -> int:
        return self.S.shape[1]

    def in_degrees(self) -> np.ndarray:
        return self.D.sum(axis=1)

    def max_in_degree(self) -> int:
        return int(self.D.sum(axis=1).max()) if self.m else 0


def edge_endpoints(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """0-indexed source and destination node of every edge, in edge order."""
    ends = np.array(topology.edges, dtype=np.intp).reshape(topology.m, 2) - 1
    return ends[:, 0].copy(), ends[:, 1].copy()


def build_incidence(topology: Topology) -> IncidenceSet:
    """Build S, D and B = S - D from the edge list.

    Column e of S (resp. D) has a single 1 in the source (resp. destination)
    row of edge e, so columns of B sum to zero by construction.
    """
    n, m = topology.n, topology.m
    src, dst = edge_endpoints(topology)
    S = np.zeros((n, m))
    D = np.zeros((n, m))
    S[src, np.arange(m)] = 1.0
    D[dst, np.arange(m)] = 1.0
    return IncidenceSet(S=S, D=D, B=S - D, src=src, dst=dst)


def reachable_from_node1(topology: Topology, reverse: bool = False) -> set:
    """1-indexed nodes reachable from node 1; with reverse, those that reach it."""
    adj = {i: [] for i in range(1, topology.n + 1)}
    for src, dst in topology.edges:
        if reverse:
            adj[dst].append(src)
        else:
            adj[src].append(dst)
    seen = {1}
    stack = [1]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_strongly_connected(topology: Topology) -> bool:
    """True iff every node reaches every other along directed paths.

    Two reachability passes from node 1, one on the graph and one on its
    reverse; both must cover all n nodes.
    """
    return (len(reachable_from_node1(topology)) == topology.n
            and len(reachable_from_node1(topology, reverse=True)) == topology.n)


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
    if n < 2:
        raise TopologyError(f"generated topologies need n >= 2, got n = {n}")
    if kind not in TOPOLOGY_KINDS:
        raise TopologyError(f"unknown topology kind {kind!r}, expected one of {TOPOLOGY_KINDS}")
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
        if not 0.0 <= extra_edge_fraction <= 1.0:
            raise TopologyError(
                f"extra_edge_fraction must be in [0, 1], got {extra_edge_fraction}"
            )
        ring_set = set(ring)
        candidates = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and (i, j) not in ring_set
        ]
        count = int(extra_edge_fraction * n * (n - 2))
        rng = random.Random(seed)
        edges = ring + sorted(rng.sample(candidates, count))
    return Topology(n=n, edges=tuple(edges))
