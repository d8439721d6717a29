import numpy as np
import pytest

from async_dca import (
    DirectedGraph,
    LabelledCycle,
    ValidationError,
    analysis_report,
    build_graph,
    build_labelled_cycle,
    bundled_matrix,
    is_sia,
    roots,
    scc_decomposition,
)
from async_dca.montecarlo import _run_script
from _oracles import bfs_roots, make_async_matrix, power_sia_oracle
from _samplers import random_strongly_connected_edges, random_structured


def test_build_graph_diagonal():
    G = build_graph(np.eye(2))
    assert G.edges == frozenset({(1, 1), (2, 2)})


def test_build_graph_rooted_four_node():
    # edge (j, i) whenever a_ij > 0: the listener points away from its source
    G = build_graph(bundled_matrix("four_node_rooted"))
    assert G.edges == frozenset({(2, 1), (3, 2), (1, 3), (3, 4)})


def test_six_node_graph_structure():
    # rooted through {1,3,4,6}; agents 2 and 5 only hear each other, so the
    # graph is not strongly connected even though every agent is reachable
    G = build_graph(bundled_matrix("six_node_coupled"))
    rep = roots(G)
    assert rep.rooted
    assert rep.roots == frozenset({1, 3, 4, 6})
    assert scc_decomposition(G) == [frozenset({1, 3, 4, 6}), frozenset({2, 5})]


def test_roots_examples():
    rep = roots(build_graph(bundled_matrix("four_node_rooted")))
    assert rep.rooted and rep.roots == frozenset({1, 2, 3})
    assert rep.chi == rep.roots

    ring = DirectedGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1)}))
    rep = roots(ring)
    assert rep.rooted and rep.roots == frozenset({1, 2, 3, 4})

    isolated = DirectedGraph(2, frozenset({(1, 1), (2, 2)}))
    rep = roots(isolated)
    assert not rep.rooted and rep.roots == frozenset() and rep.chi == frozenset()


def test_scc_decomposition_cases():
    ring = DirectedGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1)}))
    assert scc_decomposition(ring) == [frozenset({1, 2, 3, 4})]

    G = build_graph(bundled_matrix("four_node_rooted"))
    assert scc_decomposition(G) == [frozenset({1, 2, 3}), frozenset({4})]

    edgeless = DirectedGraph(3, frozenset())
    comps = scc_decomposition(edgeless)
    assert sorted(map(sorted, comps)) == [[1], [2], [3]]


def test_is_sia_on_bundled_cases():
    assert is_sia(bundled_matrix("five_node_shift"))
    assert not is_sia(bundled_matrix("two_node_swap"))
    assert not is_sia(bundled_matrix("six_node_coupled"))
    assert not is_sia(bundled_matrix("four_node_ring"))
    assert is_sia(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert not is_sia(np.eye(2))


def test_is_sia_on_asynchronous_products():
    five = bundled_matrix("five_node_shift")
    _, product = _run_script(five, [5, 4, 1, 2, 3], np.zeros(5))
    assert not is_sia(product)
    swap = bundled_matrix("two_node_swap")
    assert is_sia(_run_script(swap, [2, 1], np.zeros(2))[1])


def test_is_sia_matches_power_oracle():
    rng = np.random.default_rng(2024_10)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        A = random_structured(rng, n)
        assert is_sia(A) == power_sia_oracle(A), f"disagreement on\n{A}"


def test_roots_match_bfs_oracle():
    rng = np.random.default_rng(2024_11)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        A = random_structured(rng, n)
        G = build_graph(A)
        rep = roots(G)
        expected = bfs_roots(n, G.edges)
        assert set(rep.roots) == expected
        assert rep.rooted == bool(expected)


def test_labelled_cycle_type_validation():
    with pytest.raises(ValidationError):
        LabelledCycle(3, (1, 2))
    with pytest.raises(ValidationError):
        LabelledCycle(2, (0, 1))
    cyc = LabelledCycle(3, (1, 2, 3))
    assert cyc.predecessor(1) == 3 and cyc.successor(3) == 1
    assert cyc.label(2) == 2


def test_build_labelled_cycle_ring():
    ring = DirectedGraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
    cyc = build_labelled_cycle(ring, {1, 2, 3})
    assert cyc.length == 3
    assert cyc.labels == (1, 2, 3)


def test_build_labelled_cycle_complete_graph():
    edges = {(u, v) for u in range(1, 4) for v in range(1, 4) if u != v}
    cyc = build_labelled_cycle(DirectedGraph(3, frozenset(edges)), {1, 2, 3})
    assert cyc.length == 3


def test_build_labelled_cycle_singleton():
    G = DirectedGraph(2, frozenset({(1, 1), (1, 2)}))
    cyc = build_labelled_cycle(G, {1})
    assert cyc.length == 1 and cyc.labels == (1,)
    with pytest.raises(ValidationError):
        build_labelled_cycle(DirectedGraph(2, frozenset({(1, 2)})), {1})


def test_build_labelled_cycle_requires_strong_connectivity():
    G = DirectedGraph(3, frozenset({(1, 2), (2, 3)}))
    with pytest.raises(ValidationError):
        build_labelled_cycle(G, {1, 2, 3})


def _check_cycle_invariants(G, component, cyc):
    m = len(component)
    assert set(cyc.labels) == set(component)
    for p in range(1, cyc.length + 1):
        u = cyc.labels[p - 1]
        v = cyc.labels[cyc.successor(p) - 1]
        assert (u, v) in G.edges
    if m >= 2:
        assert cyc.length <= m * (m - 1)
    assert cyc.length <= max(G.n * (G.n - 1), 1)


def test_labelled_cycle_invariants_random():
    rng = np.random.default_rng(2024_12)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        G = DirectedGraph(n, frozenset(random_strongly_connected_edges(rng, n)))
        component = set(range(1, n + 1))
        cyc = build_labelled_cycle(G, component)
        _check_cycle_invariants(G, component, cyc)


def test_cycle_json_round_trip():
    cyc = LabelledCycle(6, (1, 2, 4, 3, 2, 4))
    again = LabelledCycle.from_json(cyc.to_json())
    assert again == cyc


def test_analysis_report_fields():
    report = analysis_report(bundled_matrix("six_node_coupled"))
    assert report["rooted"] is True
    assert report["sia"] is False
    assert report["scrambling"] is False
    assert report["lambda"] == 1.0
    assert report["delta_min"] == 0.5
    assert report["roots"] == [1, 3, 4, 6]
    assert report["cycle_length"] is not None
    assert report["cycle_length"] <= 4 * 3


def test_async_matrix_graph_consistency():
    # a non-updating row contributes only its self-loop
    A = bundled_matrix("three_node_chain")
    G = build_graph(make_async_matrix(A, {2}))
    assert (1, 1) in G.edges and (3, 3) in G.edges
    assert (1, 2) in G.edges and (2, 2) in G.edges
