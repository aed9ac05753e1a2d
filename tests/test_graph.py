import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bittide_sim import (Topology, TopologyError, build_incidence,
                         generate_topology, is_strongly_connected)


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
