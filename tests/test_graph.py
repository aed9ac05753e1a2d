import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (Topology, TopologyError, build_closed_loop,
                         build_incidence, generate_topology, init_state,
                         is_strongly_connected, make_system_params, observe)
from bittide_sim.graph import (MAX_EDGES, MAX_NODES, generated_edge_count,
                               joined_incidence, stranded_node)


def test_two_cycle_incidence_matrices():
    inc = build_incidence(Topology(n=2, edges=[(1, 2), (2, 1)]))
    np.testing.assert_array_equal(inc.S, [[1, 0], [0, 1]])
    np.testing.assert_array_equal(inc.D, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(inc.B, [[1, -1], [-1, 1]])


def test_ring3_incidence():
    inc = build_incidence(Topology(n=3, edges=[(1, 2), (2, 3), (3, 1)]))
    np.testing.assert_array_equal(inc.B, [[1, 0, -1], [-1, 1, 0], [0, -1, 1]])


def test_incidence_column_structure():
    topo = generate_topology("random-strong", 6, seed=3, extra_edge_fraction=0.4)
    inc = build_incidence(topo)
    assert (inc.S.sum(axis=0) == 1).all()
    assert (inc.D.sum(axis=0) == 1).all()
    np.testing.assert_array_equal(inc.B, inc.S - inc.D)


def test_incidence_edge_index_arrays():
    topo = generate_topology("random-strong", 6, seed=3, extra_edge_fraction=0.4)
    inc = build_incidence(topo)
    np.testing.assert_array_equal(inc.src, inc.S.argmax(axis=0))
    np.testing.assert_array_equal(inc.dst, inc.D.argmax(axis=0))
    np.testing.assert_array_equal(inc.src + 1, [s for s, _ in topo.edges])


def test_in_blocks_rows_list_each_nodes_incoming_edges_in_order():
    topo = generate_topology("random-strong", 6, seed=3, extra_edge_fraction=0.4)
    inc = build_incidence(topo)
    for nodes, edges in inc.in_blocks:
        for i, row in zip(nodes, edges):
            assert row.tolist() == [e for e, (_, d) in enumerate(topo.edges)
                                    if d == i + 1]


def test_in_blocks_group_nodes_by_in_degree():
    topo = generate_topology("random-strong", 9, seed=2, extra_edge_fraction=0.5)
    inc = build_incidence(topo)
    covered = []
    for nodes, edges in inc.in_blocks:
        assert edges.shape == (len(nodes), edges.shape[1])
        for i, row in zip(nodes, edges):
            assert row.tolist() == np.flatnonzero(inc.dst == i).tolist()
        covered += nodes.tolist()
    assert sorted(covered) == list(range(topo.n))
    degrees = [edges.shape[1] for _, edges in inc.in_blocks]
    assert degrees == sorted(set(degrees)) and len(degrees) > 1
    assert inc.in_blocks is inc.in_blocks    # built once per incidence
    # nodes without incoming edges form a block of zero columns
    nodes, edges = build_incidence(Topology(n=3, edges=[(1, 2), (1, 3)])).in_blocks[0]
    assert nodes.tolist() == [0] and edges.shape == (1, 0)


def test_incidence_operators_match_dense_matrices():
    topo = Topology(n=4, edges=[(1, 2), (1, 2), (2, 3), (3, 4), (4, 1), (3, 1)])
    inc = build_incidence(topo)
    x = np.array([0.5, -1.25, 3.0, 7.5])
    y = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    np.testing.assert_array_equal(inc.edge_diff(x), inc.B.T @ x)
    np.testing.assert_array_equal(inc.in_sum(y), inc.D @ y)
    np.testing.assert_array_equal(inc.rate_matrix(), inc.D @ inc.B.T)
    assert inc.max_in_degree() == 2


def test_large_incidence_closed_loop_and_observe_stay_small():
    # a 1024-node ring with 10465 distinct chords (m = 11489): dense n x m
    # incidence matrices alone would take 3 * 94 MB
    n, chords = 1024, 10465
    rng = np.random.default_rng(0)
    pick = rng.choice(n * (n - 2), size=chords, replace=False)
    # hops of 0 and 1 would be self-loops and ring edges
    src, hop = pick // (n - 2), pick % (n - 2) + 2
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(int(s) + 1, int((s + h) % n) + 1) for s, h in zip(src, hop)]
    topo = Topology(n=n, edges=edges)
    params = make_system_params(topo, k=0.2, omega_u=rng.uniform(0.99, 1.01, n))
    theta0 = rng.uniform(0.0, 1.0, n)
    assert topo.m == 11489

    tracemalloc.start()
    try:
        inc = build_incidence(topo)
        theta0, params = init_state(inc, params, theta0)
        observe(theta0, params, build_closed_loop(inc, params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_self_loop_rejected_names_edge():
    with pytest.raises(TopologyError, match=r"edge 2 .*self-loop"):
        Topology(n=3, edges=[(1, 2), (2, 2)])


def test_out_of_range_node_rejected():
    with pytest.raises(TopologyError, match="edge 1"):
        Topology(n=2, edges=[(1, 3)])


def test_parallel_edges_allowed():
    topo = Topology(n=2, edges=[(1, 2), (1, 2), (2, 1)])
    inc = build_incidence(topo)
    assert inc.m == 3
    np.testing.assert_array_equal(inc.B.T @ np.ones(2), np.zeros(3))


def test_strong_connectivity_cases():
    assert is_strongly_connected(Topology(n=2, edges=[(1, 2), (2, 1)]))
    assert not is_strongly_connected(Topology(n=2, edges=[(1, 2)]))
    assert is_strongly_connected(
        Topology(n=3, edges=[(1, 2), (2, 3), (3, 1), (1, 3)]))
    assert not is_strongly_connected(Topology(n=3, edges=[(1, 2), (2, 1)]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), pairs=st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=14))
def test_stranded_node_is_the_smallest_node_cut_off_from_node_1(n, pairs):
    edges = [(s, d) for s, d in pairs if s != d and s <= n and d <= n]
    reach = np.eye(n, dtype=bool)       # reach[i, j]: node i + 1 reaches j + 1
    for s, d in edges:
        reach[s - 1, d - 1] = True
    for via in range(n):                # Warshall's closure
        reach |= reach[:, [via]] & reach[[via], :]
    stranded = np.flatnonzero(~(reach[0] & reach[:, 0]))
    expected = int(stranded[0]) + 1 if stranded.size else None
    topology = Topology(n=n, edges=edges)
    assert stranded_node(topology) == expected
    assert is_strongly_connected(topology) == (expected is None)


def test_ring_generator_canonical_order():
    topo = generate_topology("ring", 3, seed=99)
    assert topo.edges == ((1, 2), (2, 3), (3, 1))


def test_bidirectional_ring_two_nodes():
    assert generate_topology("bidirectional-ring", 2).edges == ((1, 2), (2, 1))


def test_bidirectional_ring_reverse_edges_present():
    topo = generate_topology("bidirectional-ring", 5)
    edges = set(topo.edges)
    assert all((d, s) in edges for s, d in edges)
    assert topo.m == 10


def test_complete_generator():
    topo = generate_topology("complete", 4)
    assert topo.m == 12
    assert len(set(topo.edges)) == 12


def test_random_strong_edge_count_and_connectivity():
    topo = generate_topology("random-strong", 8, seed=42, extra_edge_fraction=0.3)
    assert topo.m == 8 + int(0.3 * 8 * 6)  # ring + 14 extras = 22
    assert is_strongly_connected(topo)


def test_random_strong_deterministic_in_seed():
    a = generate_topology("random-strong", 7, seed=5, extra_edge_fraction=0.5)
    b = generate_topology("random-strong", 7, seed=5, extra_edge_fraction=0.5)
    c = generate_topology("random-strong", 7, seed=6, extra_edge_fraction=0.5)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_generate_rejects_tiny_n():
    with pytest.raises(TopologyError):
        generate_topology("ring", 1)


def test_generate_rejects_unknown_kind():
    with pytest.raises(TopologyError):
        generate_topology("torus", 4)


@settings(max_examples=60)
@given(n=st.integers(2, 12), seed=st.integers(0, 10**6),
       frac=st.floats(0.0, 1.0))
def test_generated_topologies_strongly_connected_and_balanced(n, seed, frac):
    topo = generate_topology("random-strong", n, seed=seed, extra_edge_fraction=frac)
    assert is_strongly_connected(topo)
    inc = build_incidence(topo)
    np.testing.assert_array_equal(inc.B.T @ np.ones(n), np.zeros(topo.m))


@given(kind=st.sampled_from(["ring", "bidirectional-ring", "complete"]),
       n=st.integers(2, 10))
def test_fixed_generators_strongly_connected(kind, n):
    assert is_strongly_connected(generate_topology(kind, n))


def _listed_random_strong(n, seed, fraction):
    """random-strong as a list of every non-ring pair, then sampled."""
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    candidates = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                  if i != j and (i, j) not in set(ring)]
    count = int(fraction * n * (n - 2))
    return tuple(ring + sorted(random.Random(seed).sample(candidates, count)))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32),
       fraction=st.floats(0.0, 1.0))
def test_random_strong_sampler_matches_candidate_list(n, seed, fraction):
    topology = generate_topology("random-strong", n, seed=seed,
                                 extra_edge_fraction=fraction)
    assert topology.edges == _listed_random_strong(n, seed, fraction)


def test_joined_incidence_is_the_disjoint_union():
    # each member's nodes and edges follow those before it, so one edge_diff
    # of the node values end to end gives each member's own, in turn
    topologies = [Topology(n=3, edges=[(1, 2), (2, 3), (3, 1), (1, 3)]),
                  Topology(n=2, edges=[(1, 2), (2, 1)]),
                  generate_topology("random-strong", 5, seed=3,
                                    extra_edge_fraction=0.5)]
    incs = [build_incidence(t) for t in topologies]
    joined = joined_incidence(incs)
    assert joined.n == 10 and joined.m == sum(inc.m for inc in incs)
    x = np.random.default_rng(0).normal(size=(2, 10))
    diffs = [inc.edge_diff(part) for inc, part in
             zip(incs, np.split(x, [3, 5], axis=1))]
    assert joined.edge_diff(x).tobytes() == np.concatenate(
        diffs, axis=1).tobytes()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ring", "bidirectional-ring", "complete",
                             "random-strong"]),
       n=st.integers(2, 40), frac=st.floats(0.0, 1.0), seed=st.integers(0, 99))
def test_generated_edge_count_is_the_generated_topologys(kind, n, frac, seed):
    topology = generate_topology(kind, n, seed=seed, extra_edge_fraction=frac)
    assert generated_edge_count(kind, n, frac) == topology.m


def test_the_edge_bound_admits_complete_at_1024_and_the_scale_case():
    # counted, never built: complete at n = 1024, and random-strong at
    # n = 4096 with m near 11 n
    assert generated_edge_count("complete", 1024) == 1047552 <= MAX_EDGES
    m = generated_edge_count("random-strong", MAX_NODES, 0.0025)
    assert 10 * MAX_NODES < m < 12 * MAX_NODES
    assert generated_edge_count("complete", 1025) > MAX_EDGES


@pytest.mark.parametrize("kind, frac, m", [("complete", 0.0, 4096 * 4095),
                                           ("random-strong", 1.0, 4096**2 - 4096)])
def test_an_edge_count_over_the_bound_is_refused_before_any_edge(kind, frac,
                                                                  m):
    tracemalloc.start()
    try:
        with pytest.raises(TopologyError) as exc:
            generate_topology(kind, MAX_NODES, extra_edge_fraction=frac)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(exc.value) == (f"a generated {kind} topology on n = 4096 "
                              f"nodes has {m} edges; at most {MAX_EDGES} are "
                              "allowed")
