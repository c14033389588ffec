import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalseek.corpus import random_containment_pair, random_connected_graph
from coalseek.graphs import (
    Graph,
    GraphError,
    count_triangles,
    interference_to_k_graph,
    is_connected,
    laplacian,
    max_triangle_free_spanning_subgraph,
    orthonormal_complement,
    validate_containment,
)

COAL3_COMM = Graph.build(
    range(1, 7), [(1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]
)
COAL3_INTERFERENCE = Graph.build(
    range(1, 7),
    [(1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (1, 6), (2, 3)],
)


# --- construction invariants -------------------------------------------------


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph.build([1, 2], [(1, 1)])


def test_rejects_nonpositive_weight():
    with pytest.raises(GraphError):
        Graph.build([1, 2], [(1, 2, 0.0)])


def test_rejects_duplicate_edge():
    with pytest.raises(GraphError):
        Graph.build([1, 2], [(1, 2), (2, 1)])


def test_build_normalizes_endpoint_order():
    g = Graph.build([1, 2, 3], [(3, 1, 2.0)])
    assert g.edges == ((1, 3, 2.0),)
    assert g.weight(1, 3) == g.weight(3, 1) == 2.0
    assert g.weight(1, 2) == 0.0


# --- laplacian ----------------------------------------------------------------


def test_laplacian_path():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(laplacian(g), expected)


def test_laplacian_single_vertex():
    assert np.array_equal(laplacian(Graph.build([1])), np.zeros((1, 1)))


def test_laplacian_neighborhood_graph():
    g = Graph.build([1, 2, 3, 6], [(1, 2), (1, 3), (2, 6), (3, 6)])
    lap = laplacian(g)
    assert np.array_equal(np.diag(lap), np.full(4, 2.0))
    # off-diagonal -1 exactly on the declared pairs (vertex order 1,2,3,6)
    expected = np.array(
        [[2, -1, -1, 0], [-1, 2, 0, -1], [-1, 0, 2, -1], [0, -1, -1, 2]], dtype=float
    )
    assert np.array_equal(lap, expected)


def test_laplacian_annihilates_ones():
    rng = np.random.default_rng(0)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(1, 9)))
        lap = laplacian(g)
        ones = np.ones(g.n)
        assert np.array_equal(lap @ ones, np.zeros(g.n))
        assert np.array_equal(ones @ lap, np.zeros(g.n))


def test_connected_laplacian_is_psd_with_positive_fiedler():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        eig = np.linalg.eigvalsh(laplacian(g))
        assert eig[0] >= -1e-12
        assert eig[1] > 1e-10


# --- connectivity ---------------------------------------------------------------


def test_connectivity_examples():
    assert is_connected(Graph.build([1, 2, 3], [(1, 2), (2, 3)]))
    assert not is_connected(Graph.build([1, 2]))
    assert is_connected(Graph.build([1]))


def test_all_neighborhood_graphs_connected_in_demo_pair():
    for k in range(1, 7):
        assert is_connected(interference_to_k_graph(COAL3_COMM, COAL3_INTERFERENCE, k))


# --- maximal triangle-free spanning subgraph ------------------------------------


def _assert_maximal_triangle_free(sub: Graph, g: Graph):
    assert sub.vertices == g.vertices
    assert set(sub.edge_pairs()) <= set(g.edge_pairs())
    assert count_triangles(sub) == 0
    adj = {v: set(sub.neighbors(v)) for v in sub.vertices}
    for j, l in g.edge_pairs():
        if not sub.has_edge(j, l):
            # exhaustive check: re-adding any omitted edge closes a triangle
            assert adj[j] & adj[l], f"adding ({j},{l}) back keeps it triangle-free"


def test_triangle_drops_one_edge():
    k3 = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    sub = max_triangle_free_spanning_subgraph(k3)
    _assert_maximal_triangle_free(sub, k3)
    assert len(sub.edges) == 2
    assert is_connected(sub)
    # deterministic: the lexicographic greedy keeps (1,2) then (1,3)
    assert sub.edge_pairs() == ((1, 2), (1, 3))
    assert max_triangle_free_spanning_subgraph(k3) == sub


def test_four_cycle_already_maximal():
    c4 = Graph.build([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert max_triangle_free_spanning_subgraph(c4) == c4


def test_demo_interference_graph_reduction():
    sub = max_triangle_free_spanning_subgraph(COAL3_INTERFERENCE)
    _assert_maximal_triangle_free(sub, COAL3_INTERFERENCE)
    assert is_connected(sub)


def test_rejects_disconnected_input():
    with pytest.raises(GraphError):
        max_triangle_free_spanning_subgraph(Graph.build([1, 2, 3], [(1, 2)]))


def test_maximality_on_random_corpus():
    rng = np.random.default_rng(7)
    for _ in range(150):
        g = random_connected_graph(rng, int(rng.integers(2, 8)))
        sub = max_triangle_free_spanning_subgraph(g)
        _assert_maximal_triangle_free(sub, g)
        assert is_connected(sub)


# --- containment validation ------------------------------------------------------


def test_demo_pair_passes():
    report = validate_containment(COAL3_INTERFERENCE, COAL3_COMM)
    assert report.passed
    assert report.interference_connected
    assert report.comm_connected
    assert report.comm_subset_of_interference


def test_sparse_comm_fails():
    k3 = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    single = Graph.build([1, 2, 3], [(1, 2)])
    report = validate_containment(k3, single)
    assert not report.passed
    assert not report.kernel_spans


def test_path_pair_passes():
    path = Graph.build([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    report = validate_containment(path, path)
    assert report.passed


def test_comm_not_subset_fails():
    gi = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    gc = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert not validate_containment(gi, gc).passed


def _containment_by_the_full_computation(gi, gc):
    """Every field of ``validate_containment(gi, gc)``, with the kernel
    always built as a graph of its own and its connectivity always
    checked, and the kernel's maximality checked pair by pair."""
    kept = set()
    for j, l in gc.edge_pairs():  # greedy, in lexicographic order
        if not any((min(j, v), max(j, v)) in kept and (min(l, v), max(l, v)) in kept for v in gc.vertices):
            kept.add((j, l))
    kernel = Graph(gc.vertices, tuple(e for e in gc.edges if (e[0], e[1]) in kept))
    fields = {
        "interference_connected": is_connected(gi),
        "comm_connected": is_connected(gc),
        "comm_subset_of_interference": set(gc.edge_pairs()) <= set(gi.edge_pairs()),
        "kernel_spans": is_connected(kernel),
        "kernel_maximal": all(
            kernel.has_edge(j, l) or any(kernel.has_edge(j, v) and kernel.has_edge(l, v) for v in gc.vertices)
            for j, l in gi.edge_pairs()
        ),
    }
    messages = {
        "interference_connected": "interference graph is not connected",
        "comm_connected": "communication graph is not connected",
        "comm_subset_of_interference": "communication edges are not a subset of interference edges",
        "kernel_spans": "triangle-free kernel of the communication graph is not spanning-connected",
        "kernel_maximal": "communication graph contains no maximal triangle-free spanning subgraph "
        "of the interference graph",
    }
    failures = tuple(messages[name] for name, holds in fields.items() if not holds)
    return {**fields, "kernel": kernel, "failures": failures}


def _containment_inputs():
    rng = np.random.default_rng(29)
    pairs = [random_containment_pair(rng, n) for n in (1, 2, 3, 5, 8, 13) for _ in range(4)]
    ring = Graph.build(range(1, 10), [(j, j % 9 + 1) for j in range(1, 10)])
    triangle = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    apart = Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)])  # triangle-free, not connected
    pairs += [(ring, ring), (triangle, triangle), (triangle, Graph.build([1, 2, 3], [(1, 2), (2, 3)]))]
    pairs += [(apart, apart), (triangle, Graph.build([1, 2, 3]))]
    return pairs


@pytest.mark.parametrize("gi, gc", _containment_inputs())
def test_containment_matches_the_full_computation(gi, gc):
    report = validate_containment(gi, gc)
    expected = _containment_by_the_full_computation(gi, gc)
    assert {name: getattr(report, name) for name in expected} == expected


def test_vertex_mismatch_raises():
    with pytest.raises(GraphError):
        validate_containment(Graph.build([1, 2]), Graph.build([1, 2, 3]))


# --- neighborhood communication graphs -------------------------------------------


def test_neighborhood_graph_k1():
    sub = interference_to_k_graph(COAL3_COMM, COAL3_INTERFERENCE, 1)
    assert sub.vertices == (1, 2, 3, 6)
    assert sub.edge_pairs() == ((1, 2), (1, 3), (2, 6), (3, 6))


def test_neighborhood_graph_k4():
    sub = interference_to_k_graph(COAL3_COMM, COAL3_INTERFERENCE, 4)
    assert sub.vertices == (2, 3, 4)
    assert sub.edge_pairs() == ((2, 4), (3, 4))


def test_neighborhood_graph_singleton():
    g = Graph.build([1])
    sub = interference_to_k_graph(g, g, 1)
    assert sub.vertices == (1,)
    assert sub.edges == ()


def test_neighborhood_graph_absent_vertex():
    with pytest.raises(GraphError):
        interference_to_k_graph(COAL3_COMM, COAL3_INTERFERENCE, 9)


def test_neighborhood_weights_inherited():
    gc = Graph.build([1, 2, 3], [(1, 2, 2.5), (2, 3, 0.5)])
    gi = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    sub = interference_to_k_graph(gc, gi, 2)
    assert sub.weight(1, 2) == 2.5
    assert sub.weight(2, 3) == 0.5


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_compliant_pairs_have_connected_neighborhoods(n, seed):
    rng = np.random.default_rng(seed)
    gi, gc = random_containment_pair(rng, n)
    report = validate_containment(gi, gc)
    assert report.passed
    for k in gi.vertices:
        assert is_connected(interference_to_k_graph(gc, gi, k))


# --- orthonormal complement -------------------------------------------------------


def test_complement_n2_sign():
    r = orthonormal_complement(2)
    assert np.allclose(r.ravel(), [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


def test_complement_n1_empty():
    assert orthonormal_complement(1).shape == (1, 0)


def test_complement_n4_orthogonality():
    r = orthonormal_complement(4)
    assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-12
    assert np.abs(r.T @ np.ones(4)).max() <= 1e-12


def test_reduced_laplacian_positive_definite():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        r = orthonormal_complement(g.n)
        reduced = r.T @ laplacian(g) @ r
        assert np.abs(reduced - reduced.T).max() <= 1e-12
        assert np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0] > 1e-10


def test_triangle_count_brute_force_agreement():
    # count_triangles backs the maximality checks; pin it against an
    # independent enumeration on dense random graphs.
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        edges = [
            (j, l)
            for j in range(1, n + 1)
            for l in range(j + 1, n + 1)
            if rng.random() < 0.6
        ]
        g = Graph.build(range(1, n + 1), edges)
        brute = sum(
            1
            for a, b, c in itertools.combinations(range(1, n + 1), 3)
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        )
        assert count_triangles(g) == brute
