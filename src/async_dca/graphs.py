"""Directed-graph analysis for stochastic matrices.

The graph of a row-stochastic matrix ``A`` has an edge ``j -> i`` exactly
when ``a_ij > 0``: information flows from the agent being listened to, to
the agent doing the averaging.  This is the support digraph of the Markov
chain with transition matrix ``A`` reversed, so the chain's closed classes
are the graph's source components.  A ``DirectedGraph`` is that boolean
relation and nothing else: ``adj = (A > 0).T``, true at ``[u - 1, v - 1]``
for the edge ``u -> v``.

A node is a root when every other node is reachable from it.  The set of
roots of a rooted graph is always a single strongly connected component
(any node that reaches a root is itself a root, and roots reach each
other), namely the unique source component of the condensation.

Every verdict reads the reachability matrix ``R`` of ``adj`` (``_reach``):
the roots are the rows of ``R`` that are all true, the strongly connected
components are the rows of ``R & R.T``, and a node set is strongly
connected when the ``R`` of its induced subgraph is all true.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .matrices import SCRAMBLING_TOL, StochasticMatrix, _entries, _integer, ergodic_coefficient


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Nodes 1..n as a read-only relation: ``adj[u - 1, v - 1]`` is the edge u -> v."""

    adj: np.ndarray

    def __post_init__(self):
        adj = np.array(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise ValidationError(f"expected a nonempty square relation, got shape {adj.shape}")
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return self.adj.shape[0]


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
        # the walk compares labels as int64
        if not all(1 <= v < 1 << 63 for v in labels):
            raise ValidationError("labels must be positive node indices below 2**63")
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
    """Influence graph of a nonnegative square matrix: edge j -> i iff a_ij > 0."""
    if isinstance(A, StochasticMatrix):
        arr = A.entries
    else:
        arr = np.asarray(A, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        if not (arr >= 0).all():
            i, j = np.argwhere(~(arr >= 0))[0]
            raise ValidationError(f"negative or NaN entry at row {i + 1}, column {j + 1}")
    return DirectedGraph((arr > 0).T)


def _reach(adj: np.ndarray) -> np.ndarray:
    """Reachability matrix: entry (u, v) is true when v is reachable from u
    in zero or more steps of the boolean relation ``adj``.

    Warshall's closure: after the pass for node k, (u, v) is true when some
    walk from u to v has all its intermediate nodes in 0..k, so after the
    last pass R is the closure.  Each pass is one element-wise OR of the
    rows that reach k with row k, O(n^2) and no matrix product, so a
    long-diameter graph costs no more than a dense one.
    """
    R = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(R)):
        R |= R[:, k:k + 1] & R[k]
    return R


def scc_decomposition(G: DirectedGraph) -> list:
    """Maximal strongly connected components, in a topological order of the
    condensation with sources first.

    The components are ordered by how many nodes they reach, most first, and
    ties by their least member.  A component reaching another reaches
    strictly more nodes, so it always comes earlier.
    """
    R = _reach(G.adj)
    mutual = R & R.T
    reached = R.sum(axis=1)
    comps, seen = [], np.zeros(G.n, dtype=bool)
    for v in sorted(range(G.n), key=lambda v: (-reached[v], v)):
        if not seen[v]:
            seen |= mutual[v]
            comps.append(frozenset((np.flatnonzero(mutual[v]) + 1).tolist()))
    return comps


def roots(G: DirectedGraph) -> frozenset:
    """The root set chi: the nodes from which every other node is reachable.

    It is empty exactly when the graph is not rooted.  The root set of a
    rooted graph is the unique source component of the condensation, so it
    is also the root component, the only strongly connected component fully
    contained in it.
    """
    return frozenset((np.flatnonzero(_reach(G.adj).all(axis=1)) + 1).tolist())


def is_sia(A) -> bool:
    """Stochastic-indecomposable-aperiodic test via the chain structure.

    The powers of ``A`` converge to a rank-one matrix exactly when the
    Markov chain with row-transition matrix ``A`` has a single closed
    communicating class and that class is aperiodic.  The chain's support
    edges (``i -> j`` iff ``a_ij > 0``) are the influence graph's edges
    reversed, so its closed classes are the graph's source components: a
    single one means the graph is rooted, with ``chi`` that class.  The
    period of a strongly connected class is the gcd of
    ``level[i] + 1 - level[j]`` over its edges ``i -> j``, with ``level``
    the breadth-first distance from any one member (each closed walk's
    length is a sum of these terms, and each term is the difference of two
    closed walks' lengths), so the class is aperiodic exactly when that gcd
    is 1; a self-loop contributes a 1.
    """
    support = _entries(A) > 0
    chi = np.flatnonzero(_reach(support.T).all(axis=1))
    S = support[np.ix_(chi, chi)]
    # breadth-first levels from the class's first member
    level, frontier, d = np.full(len(chi), -1), np.arange(len(chi)) == 0, 0
    while frontier.any():
        level[frontier] = d
        frontier = S[frontier].any(axis=0) & (level < 0)
        d += 1
    i, j = np.nonzero(S)
    # no class, or a lone member without a self-loop, has no edge: gcd 0
    return bool(np.gcd.reduce(level[i] + 1 - level[j]) == 1)


def build_labelled_cycle(G: DirectedGraph, component) -> LabelledCycle:
    """Closed walk through a strongly connected component, as a labelled cycle.

    Concatenates BFS shortest paths (lowest-index tie-breaking) between the
    component's nodes in ascending order, then back to the first.  The
    resulting cycle covers every component node and its length is at most
    m*(m-1) for a component of m >= 2 nodes.
    """
    members = sorted({_integer(v, "component member") for v in component})
    if not members:
        raise ValidationError("component is empty")
    if any(not 1 <= v <= G.n for v in members):
        raise ValidationError(f"component {members} out of range 1..{G.n}")
    # the induced subgraph, its nodes renumbered 0..m-1 in ascending order
    inside = [v - 1 for v in members]
    sub = G.adj[np.ix_(inside, inside)]
    if not _reach(sub).all():
        raise ValidationError(f"component {members} is not strongly connected")
    adj = [np.flatnonzero(row).tolist() for row in sub]
    if len(members) == 1:
        if not adj[0]:
            raise ValidationError(
                f"singleton component {members} has no self-loop, so no cycle exists"
            )
        return LabelledCycle(1, tuple(members))

    def shortest_path(src, dst):
        # the component is strongly connected, so the search reaches dst;
        # the queue grows as it is read, so nodes are expanded level by level
        parent = {src: None}
        queue = [src]
        for u in queue:
            for v in adj[u]:  # ascending order fixes tie-breaking
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
            if dst in parent:
                break
        path = [dst]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    m = len(members)
    labels = []
    for src in range(m):
        labels.extend(shortest_path(src, (src + 1) % m)[:-1])
    return LabelledCycle(len(labels), tuple(members[k] for k in labels))


def analysis_report(A: StochasticMatrix) -> dict:
    """Connectivity / ergodicity summary used by the `analyze` subcommand."""
    G = build_graph(A)
    chi = roots(G)
    comps = scc_decomposition(G)
    # chi is strongly connected, and a lone root has a self-loop (its row's
    # positive entry is its own), so building the cycle cannot fail
    cycle_length = build_labelled_cycle(G, chi).length if chi else None
    lam = ergodic_coefficient(A)
    return {
        "n": A.n,
        "rooted": bool(chi),
        "roots": sorted(chi),
        "scc": [sorted(c) for c in comps],
        "sia": is_sia(A),
        "scrambling": lam < 1.0 - SCRAMBLING_TOL,  # is_scrambling, read off lam
        "lambda": lam,
        "delta_min": A.min_positive_entry(),
        "cycle_length": cycle_length,
    }
