"""Directed-graph analysis for stochastic matrices.

The graph of a row-stochastic matrix ``A`` has an edge ``j -> i`` exactly
when ``a_ij > 0``: information flows from the agent being listened to, to
the agent doing the averaging.  This is the support digraph of the Markov
chain with transition matrix ``A`` reversed, so the chain's closed classes
are the graph's source components (``is_sia`` reads them from ``roots``).

A node is a root when every other node is reachable from it.  The set of
roots of a rooted graph is always a single strongly connected component
(any node that reaches a root is itself a root, and roots reach each
other), namely the unique source component of the condensation.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DimensionError, ValidationError
from .matrices import StochasticMatrix, _entries, _integer, ergodic_coefficient, is_scrambling


@dataclass(frozen=True)
class DirectedGraph:
    """Nodes 1..n and a set of ordered edge pairs; self-loops allowed."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one node")
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValidationError(f"edge ({u}, {v}) out of range 1..{self.n}")
        object.__setattr__(self, "edges", frozenset((int(u), int(v)) for u, v in self.edges))

    def adjacency(self) -> list:
        """0-based adjacency lists, successors in ascending order."""
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u - 1].append(v - 1)
        for lst in adj:
            lst.sort()
        return adj


@dataclass(frozen=True)
class RootReport:
    rooted: bool
    roots: frozenset
    chi: frozenset

    def to_json(self) -> dict:
        return {
            "rooted": self.rooted,
            "roots": sorted(self.roots),
            "chi": sorted(self.chi),
        }


@dataclass(frozen=True)
class LabelledCycle:
    """Directed cycle on positions 1..length with per-position node labels.

    Position p has an edge to p+1 (and length to 1); labels name nodes of
    the source graph and may repeat.
    """

    length: int
    labels: tuple

    def __post_init__(self):
        length = _integer(self.length, "cycle length")
        labels = tuple(_integer(v, "cycle label") for v in self.labels)
        if length < 1 or len(labels) != length:
            raise ValidationError(f"cycle length {length} does not match {len(labels)} labels")
        if any(v < 1 for v in labels):
            raise ValidationError("labels must be positive node indices")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_json(cls, obj: dict) -> "LabelledCycle":
        try:
            return cls(obj["length"], tuple(obj["labels"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"cycle JSON needs 'length' and 'labels': {exc}") from exc

    def to_json(self) -> dict:
        return {"length": self.length, "labels": list(self.labels)}


def build_graph(A) -> DirectedGraph:
    """Influence graph of a nonnegative square matrix: edge (j, i) iff a_ij > 0."""
    if isinstance(A, StochasticMatrix):
        arr = A.entries
    else:
        arr = np.asarray(A, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    edges = {(j + 1, i + 1) for i, j in zip(*np.nonzero(arr > 0))}
    return DirectedGraph(n, frozenset(edges))


def _scc_indices(adj: list) -> list:
    """Kosaraju SCCs over 0-based adjacency lists, sources first."""
    n = len(adj)
    visited = [False] * n
    order = []
    for s in range(n):
        if visited[s]:
            continue
        stack = [(s, 0)]
        visited[s] = True
        while stack:
            u, ptr = stack[-1]
            if ptr < len(adj[u]):
                stack[-1] = (u, ptr + 1)
                v = adj[u][ptr]
                if not visited[v]:
                    visited[v] = True
                    stack.append((v, 0))
            else:
                order.append(u)
                stack.pop()
    radj = [[] for _ in range(n)]
    for u in range(n):
        for v in adj[u]:
            radj[v].append(u)
    comp = [-1] * n
    comps = []
    for s in reversed(order):
        if comp[s] != -1:
            continue
        cid = len(comps)
        members = [s]
        comp[s] = cid
        stack = [s]
        while stack:
            u = stack.pop()
            for v in radj[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    members.append(v)
                    stack.append(v)
        comps.append(sorted(members))
    return comps


def scc_decomposition(G: DirectedGraph) -> list:
    """Maximal strongly connected components, in condensation topological order."""
    return [frozenset(m + 1 for m in members) for members in _scc_indices(G.adjacency())]


def roots(G: DirectedGraph) -> RootReport:
    """Nodes from which every other node is reachable.

    The root set of a rooted graph is the unique source component of the
    condensation, which is also the only strongly connected component fully
    contained in it; ``chi`` reports that component (empty when unrooted).
    """
    comps = scc_decomposition(G)
    comp_of = {}
    for idx, members in enumerate(comps):
        for v in members:
            comp_of[v] = idx
    has_incoming = [False] * len(comps)
    for u, v in G.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu != cv:
            has_incoming[cv] = True
    sources = [i for i, inc in enumerate(has_incoming) if not inc]
    if len(sources) == 1:
        root_set = comps[sources[0]]
        return RootReport(True, root_set, root_set)
    return RootReport(False, frozenset(), frozenset())


def _component_period(members: list, adj: list) -> int:
    """gcd of (depth(u) + 1 - depth(v)) over edges inside one SCC.

    Depths come from a BFS layering rooted at the smallest member; tree
    edges contribute 0, which gcd ignores.  Returns 0 for a single node
    with no self-loop.
    """
    inside = set(members)
    depth = {members[0]: 0}
    queue = [members[0]]
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v in inside and v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        queue = nxt
    g = 0
    for u in members:
        for v in adj[u]:
            if v in inside:
                g = gcd(g, depth[u] + 1 - depth[v])
    return abs(g)


def is_sia(A) -> bool:
    """Stochastic-indecomposable-aperiodic test via the chain structure.

    The powers of ``A`` converge to a rank-one matrix exactly when the
    Markov chain with row-transition matrix ``A`` has a single closed
    communicating class and that class is aperiodic.  The chain's support
    edges (``i -> j`` iff ``a_ij > 0``) are the influence graph's edges
    reversed, so its closed classes are the graph's source components: a
    single one means the graph is rooted, with ``chi`` that class.
    Reversing the edges keeps a component's period.
    """
    G = build_graph(_entries(A))
    rep = roots(G)
    return rep.rooted and _component_period(sorted(v - 1 for v in rep.chi), G.adjacency()) == 1


def build_labelled_cycle(G: DirectedGraph, component) -> LabelledCycle:
    """Closed walk through a strongly connected component, as a labelled cycle.

    Concatenates BFS shortest paths (lowest-index tie-breaking) between the
    component's nodes in ascending order, then back to the first.  The
    resulting cycle covers every component node and its length is at most
    m*(m-1) for a component of m >= 2 nodes.
    """
    members = sorted(set(int(v) for v in component))
    if not members:
        raise ValidationError("component is empty")
    if any(not 1 <= v <= G.n for v in members):
        raise ValidationError(f"component {members} out of range 1..{G.n}")
    # the induced subgraph, its nodes renumbered 0..m-1 in ascending order
    full = G.adjacency()
    index = {v - 1: k for k, v in enumerate(members)}
    adj = [[index[v] for v in full[u - 1] if v in index] for u in members]
    if len(_scc_indices(adj)) != 1:
        raise ValidationError(f"component {members} is not strongly connected")
    if len(members) == 1:
        if not adj[0]:
            raise ValidationError(
                f"singleton component {members} has no self-loop, so no cycle exists"
            )
        return LabelledCycle(1, tuple(members))

    def shortest_path(src, dst):
        # the component is strongly connected, so the search reaches dst
        parent = {src: None}
        queue = [src]
        while queue:
            nxt = []
            for u in queue:
                for v in adj[u]:  # ascending order fixes tie-breaking
                    if v not in parent:
                        parent[v] = u
                        if v == dst:
                            path = [v]
                            while parent[path[-1]] is not None:
                                path.append(parent[path[-1]])
                            return path[::-1]
                        nxt.append(v)
            queue = nxt

    m = len(members)
    labels = []
    for src in range(m):
        labels.extend(shortest_path(src, (src + 1) % m)[:-1])
    return LabelledCycle(len(labels), tuple(members[k] for k in labels))


def analysis_report(A: StochasticMatrix) -> dict:
    """Connectivity / ergodicity summary used by the `analyze` subcommand."""
    G = build_graph(A)
    rep = roots(G)
    comps = scc_decomposition(G)
    # chi is strongly connected, and a lone root has a self-loop (its row's
    # positive entry is its own), so building the cycle cannot fail
    cycle_length = build_labelled_cycle(G, rep.chi).length if rep.rooted else None
    return {
        "n": A.n,
        "rooted": rep.rooted,
        "roots": sorted(rep.roots),
        "scc": [sorted(c) for c in comps],
        "sia": is_sia(A),
        "scrambling": is_scrambling(A),
        "lambda": ergodic_coefficient(A),
        "delta_min": A.min_positive_entry(),
        "cycle_length": cycle_length,
    }
