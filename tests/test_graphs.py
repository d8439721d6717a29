import numpy as np
import pytest

from async_dca import (
    BUNDLED_MATRICES,
    DimensionError,
    DirectedGraph,
    LabelledCycle,
    StochasticMatrix,
    ValidationError,
    analysis_report,
    build_graph,
    build_labelled_cycle,
    bundled_matrix,
    ergodic_coefficient,
    is_scrambling,
    is_sia,
    roots,
    scc_decomposition,
)
from async_dca import graphs, matrices
from async_dca.montecarlo import _run_script
from _oracles import (
    bfs_reach_all,
    bfs_reachable,
    bfs_roots,
    cycle_label,
    cycle_predecessor,
    cycle_successor,
    edges_of,
    graph_of,
    make_async_matrix,
    matrix_edges,
    power_sia_oracle,
)
from _samplers import (
    random_edges,
    random_rooted_stochastic,
    random_stochastic,
    random_strongly_connected_edges,
    random_structured,
)


def test_build_graph_diagonal():
    G = build_graph(np.eye(2))
    assert edges_of(G) == {(1, 1), (2, 2)}


def test_build_graph_rooted_four_node():
    # edge (j, i) whenever a_ij > 0: the listener points away from its source
    G = build_graph(bundled_matrix("four_node_rooted"))
    assert edges_of(G) == {(2, 1), (3, 2), (1, 3), (3, 4)}


def test_build_graph_rejects_nan_and_negative_entries():
    # such entries used to get no edge, as if they were zero
    for bad in (np.nan, -0.25):
        with pytest.raises(ValidationError, match="row 2, column 1"):
            build_graph(np.array([[1.0, 0.0], [bad, 1.0]]))
    with pytest.raises(DimensionError):
        build_graph(np.ones((2, 3)))
    assert build_graph(np.zeros((2, 2))).n == 2


def test_directed_graph_holds_a_read_only_square_relation():
    for shape in ((0, 0), (2, 3), (3,), (2, 2, 2)):
        with pytest.raises(ValidationError, match="square relation"):
            DirectedGraph(np.zeros(shape, dtype=bool))
    source = np.eye(3, dtype=bool)
    G = DirectedGraph(source)
    assert G.n == 3 and G.adj.dtype == bool
    with pytest.raises(ValueError):
        G.adj[0, 1] = True
    # the graph holds its own copy, so the caller's array stays writable
    source[0, 1] = True
    assert not G.adj[0, 1]


def test_six_node_graph_structure():
    # rooted through {1,3,4,6}; agents 2 and 5 only hear each other, so the
    # graph is not strongly connected even though every agent is reachable
    G = build_graph(bundled_matrix("six_node_coupled"))
    assert roots(G) == frozenset({1, 3, 4, 6})
    assert scc_decomposition(G) == [frozenset({1, 3, 4, 6}), frozenset({2, 5})]


def test_roots_examples():
    chi = roots(build_graph(bundled_matrix("four_node_rooted")))
    assert type(chi) is frozenset and chi == frozenset({1, 2, 3})

    ring = graph_of(4, {(1, 2), (2, 3), (3, 4), (4, 1)})
    assert roots(ring) == frozenset({1, 2, 3, 4})

    # not rooted: the root set is empty
    isolated = graph_of(2, {(1, 1), (2, 2)})
    assert roots(isolated) == frozenset()


def test_scc_decomposition_cases():
    ring = graph_of(4, {(1, 2), (2, 3), (3, 4), (4, 1)})
    assert scc_decomposition(ring) == [frozenset({1, 2, 3, 4})]

    G = build_graph(bundled_matrix("four_node_rooted"))
    assert scc_decomposition(G) == [frozenset({1, 2, 3}), frozenset({4})]

    edgeless = graph_of(3, set())
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


def _cycle_with_chord(m, skip):
    """The m-cycle i -> i + 1 as a row-stochastic matrix; with skip > 1 node
    1 also steps to node 1 + skip, which closes a second cycle of m + 1 -
    skip nodes."""
    A = np.roll(np.eye(m), 1, axis=1)
    if skip > 1:
        A[0, 1] = A[0, skip] = 0.5
    return A


@pytest.mark.parametrize("m, skip, sia", [
    (300, 1, False), (301, 1, False),  # period m
    (300, 2, True), (301, 2, True),    # cycles of m and m - 1 nodes: coprime
    (300, 3, False), (301, 3, True),   # cycles of m and m - 2 nodes: gcd 2 when m is even
])
def test_is_sia_on_long_cycles_with_and_without_a_chord(m, skip, sia):
    assert is_sia(_cycle_with_chord(m, skip)) is sia


def _large_matrices():
    """Three 300-node matrices: a lazy cycle, of diameter 299, a random
    sparse matrix, rooted with 258 roots among 43 components, and a dense
    one, all positive."""
    n = 300
    cycle = 0.5 * np.eye(n)
    cycle[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    return [cycle, random_stochastic(np.random.default_rng(300), n, density=0.007),
            random_stochastic(np.random.default_rng(301), n, density=1.0)]


def test_is_sia_matches_power_oracle():
    rng = np.random.default_rng(2024_10)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        A = random_structured(rng, n)
        assert is_sia(A) == power_sia_oracle(A), f"disagreement on\n{A}"
    for A in _large_matrices():
        assert is_sia(A) == power_sia_oracle(A)


def test_is_sia_with_and_without_a_root_self_loop_matches_power_oracle():
    # a self-loop in the root class decides aperiodicity without squaring;
    # the same matrices with that diagonal emptied are decided by squaring
    rng = np.random.default_rng(2026_26)
    seen = {True: 0, False: 0}
    for trial in range(600):
        n = int(rng.integers(1, 11))
        A = (random_rooted_stochastic, random_structured)[trial % 2](rng, n)
        for B in (A, _without_diagonal(A)):
            chi = np.array(sorted(roots(build_graph(B))), dtype=int) - 1
            looped = bool((np.diag(B)[chi] > 0).any())
            seen[looped] += 1
            assert is_sia(B) == power_sia_oracle(B), f"disagreement on\n{B}"
            if looped:
                assert is_sia(B)
    assert min(seen.values()) > 200


def _without_diagonal(A):
    """A with every diagonal entry moved onto its row's other positive
    entries, where a row has any."""
    B = A.copy()
    for i in range(len(B)):
        off = B[i].sum() - B[i, i]
        if off > 0:
            B[i] /= off
            B[i, i] = 0.0
    return B


def test_roots_match_bfs_oracle():
    rng = np.random.default_rng(2024_11)
    instances = [random_structured(rng, int(rng.integers(1, 13))) for _ in range(500)]
    for A in instances + _large_matrices():
        n = len(A)
        G = build_graph(A)
        edges = matrix_edges(A)
        assert edges_of(G) == edges
        assert roots(G) == bfs_roots(n, edges)


def test_scc_decomposition_matches_bfs_oracle():
    rng = np.random.default_rng(2026_22)
    instances = []
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        instances.append((n, random_edges(rng, n, density=rng.uniform(0.05, 0.5))))
    instances += [(len(A), matrix_edges(A)) for A in _large_matrices()]
    for n, edges in instances:
        comps = scc_decomposition(graph_of(n, edges))
        reach = bfs_reach_all(n, edges)
        assert sorted(v for c in comps for v in c) == list(range(1, n + 1))
        for i, c in enumerate(comps):
            # strongly connected, and no outside node reaches in and back
            assert all(c <= reach[u] for u in c)
            assert not any(u in reach[w] and w in reach[u]
                           for u in c for w in set(reach) - c)
            # sources first: no later component reaches this one
            assert not any(reach[u] & c for later in comps[i + 1:] for u in later)
        # most nodes reached first, ties by least member
        keys = [(-len(reach[min(c)]), min(c)) for c in comps]
        assert keys == sorted(keys), (n, sorted(edges))


def test_labelled_cycle_type_validation():
    with pytest.raises(ValidationError):
        LabelledCycle(3, (1, 2))
    with pytest.raises(ValidationError):
        LabelledCycle(2, (0, 1))
    cyc = LabelledCycle(3, (1, 2, 3))
    assert cycle_predecessor(cyc, 1) == 3 and cycle_successor(cyc, 3) == 1
    assert cycle_label(cyc, 2) == 2


def test_build_labelled_cycle_ring():
    ring = graph_of(3, {(1, 2), (2, 3), (3, 1)})
    cyc = build_labelled_cycle(ring, {1, 2, 3})
    assert cyc.length == 3
    assert cyc.labels == (1, 2, 3)


def test_build_labelled_cycle_rejects_non_integral_members():
    # 1.7 used to be truncated to node 1
    ring = graph_of(3, {(1, 2), (2, 3), (3, 1)})
    for bad in (1.7, "1", True):
        with pytest.raises(ValidationError, match="component member"):
            build_labelled_cycle(ring, {bad, 2, 3})
    assert build_labelled_cycle(ring, {1.0, np.int64(2), 3}).labels == (1, 2, 3)


def test_build_labelled_cycle_rejects_empty_and_out_of_range_components():
    ring = graph_of(3, {(1, 2), (2, 3), (3, 1)})
    with pytest.raises(ValidationError, match="empty"):
        build_labelled_cycle(ring, set())
    for bad in ({0, 1}, {1, 2, 4}):
        with pytest.raises(ValidationError, match="out of range"):
            build_labelled_cycle(ring, bad)


def test_build_labelled_cycle_complete_graph():
    edges = {(u, v) for u in range(1, 4) for v in range(1, 4) if u != v}
    cyc = build_labelled_cycle(graph_of(3, edges), {1, 2, 3})
    assert cyc.length == 3


def test_build_labelled_cycle_singleton():
    G = graph_of(2, {(1, 1), (1, 2)})
    cyc = build_labelled_cycle(G, {1})
    assert cyc.length == 1 and cyc.labels == (1,)
    with pytest.raises(ValidationError):
        build_labelled_cycle(graph_of(2, {(1, 2)}), {1})


def test_build_labelled_cycle_requires_strong_connectivity():
    G = graph_of(3, {(1, 2), (2, 3)})
    with pytest.raises(ValidationError):
        build_labelled_cycle(G, {1, 2, 3})


def _check_cycle_invariants(G, component, cyc):
    m = len(component)
    assert set(cyc.labels) == set(component)
    for p in range(1, cyc.length + 1):
        u = cyc.labels[p - 1]
        v = cyc.labels[cycle_successor(cyc, p) - 1]
        assert G.adj[u - 1, v - 1]
    if m >= 2:
        assert cyc.length <= m * (m - 1)
    assert cyc.length <= max(G.n * (G.n - 1), 1)


def test_labelled_cycle_invariants_random():
    rng = np.random.default_rng(2024_12)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        G = graph_of(n, random_strongly_connected_edges(rng, n))
        component = set(range(1, n + 1))
        cyc = build_labelled_cycle(G, component)
        _check_cycle_invariants(G, component, cyc)


def _strongly_connected_inside(n, edges, members):
    """Whether ``members`` is strongly connected using its own edges only."""
    inside = [(u, v) for u, v in edges if u in members and v in members]
    start = min(members)
    return (members <= bfs_reachable(n, inside, start)
            and members <= bfs_reachable(n, [(v, u) for u, v in inside], start))


def test_labelled_cycle_strong_connectivity_matches_bfs_oracle():
    # {1, 2} is joined only through node 3 (1 -> 3 -> 2 -> 1)
    G = graph_of(3, {(1, 3), (3, 2), (2, 1)})
    with pytest.raises(ValidationError, match="not strongly connected"):
        build_labelled_cycle(G, {1, 2})
    _check_cycle_invariants(G, {1, 2, 3}, build_labelled_cycle(G, {1, 2, 3}))
    rng = np.random.default_rng(2026_10)
    verdicts = []
    for _ in range(600):
        n = int(rng.integers(1, 8))
        density = rng.uniform(0.15, 0.6)
        edges = {(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                 if rng.random() < density}
        G = graph_of(n, edges)
        members = {v for v in range(1, n + 1) if rng.random() < 0.6} or {n}
        connected = _strongly_connected_inside(n, edges, members)
        # a lone node makes a cycle only through its self-loop
        expected = connected and (len(members) > 1 or (min(members),) * 2 in edges)
        try:
            cyc = build_labelled_cycle(G, members)
        except ValidationError:
            accepted = False
        else:
            accepted = True
            _check_cycle_invariants(G, members, cyc)
        assert accepted == expected, (n, sorted(edges), sorted(members))
        verdicts.append((connected, len(members) > 1))
    assert (True, True) in verdicts and (False, True) in verdicts


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


def test_analysis_report_gives_every_rooted_matrix_a_cycle():
    # chi is strongly connected and a lone root has a self-loop, so the
    # report always builds a cycle for a rooted matrix (lone roots included)
    rng = np.random.default_rng(2024_12)
    lone_roots = 0
    for trial in range(600):
        n = int(rng.integers(1, 8))
        sample = (random_stochastic, random_structured, random_rooted_stochastic)[trial % 3]
        report = analysis_report(StochasticMatrix(sample(rng, n)))
        if report["rooted"]:
            assert type(report["cycle_length"]) is int and report["cycle_length"] >= 1
            lone_roots += len(report["roots"]) == 1
        else:
            assert report["cycle_length"] is None
    assert lone_roots > 100


def test_analysis_report_takes_the_coefficient_once(monkeypatch):
    # scrambling is read off the report's own lambda, the test is_scrambling
    # applies, so the verdict is unchanged
    calls = []

    def counting(A):
        calls.append(1)
        return ergodic_coefficient(A)

    monkeypatch.setattr(graphs, "ergodic_coefficient", counting)
    monkeypatch.setattr(matrices, "ergodic_coefficient", counting)
    rng = np.random.default_rng(2026_27)
    for trial in range(200):
        A = StochasticMatrix(random_structured(rng, int(rng.integers(1, 9))))
        calls.clear()
        report = analysis_report(A)
        assert len(calls) == 1
        assert report["scrambling"] is is_scrambling(A)
    assert {analysis_report(bundled_matrix(name))["scrambling"]
            for name in BUNDLED_MATRICES} == {True, False}


def test_async_matrix_graph_consistency():
    # a non-updating row contributes only its self-loop
    A = bundled_matrix("three_node_chain")
    edges = edges_of(build_graph(make_async_matrix(A, {2})))
    assert (1, 1) in edges and (3, 3) in edges
    assert (1, 2) in edges and (2, 2) in edges
