"""Undirected weighted simple graphs and the structural operations the seeking
dynamics rely on: Laplacians, connectivity, maximal triangle-free spanning
subgraphs, the communication-containment check, per-agent neighborhood
communication graphs, and orthonormal complements of the all-ones direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "laplacian",
    "is_connected",
    "count_triangles",
    "max_triangle_free_spanning_subgraph",
    "ContainmentReport",
    "validate_containment",
    "interference_to_k_graph",
    "orthonormal_complement",
]


class GraphError(ValueError):
    pass


EdgeSpec = Sequence  # (j, l) or (j, l, weight)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with positive edge weights.

    ``vertices`` is a sorted tuple of integer labels; ``edges`` holds
    ``(j, l, weight)`` triples with ``j < l``, sorted lexicographically.
    Instances are immutable and all operations on them are pure.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices) or tuple(sorted(vset)) != self.vertices:
            raise GraphError("vertices must be sorted and distinct")
        seen = set()
        for j, l, w in self.edges:
            if j == l:
                raise GraphError(f"self-loop at vertex {j}")
            if j > l:
                raise GraphError(f"edge ({j},{l}) not in canonical (min,max) order")
            if j not in vset or l not in vset:
                raise GraphError(f"edge ({j},{l}) references an unknown vertex")
            if not (w > 0):
                raise GraphError(f"edge ({j},{l}) has non-positive weight {w}")
            if (j, l) in seen:
                raise GraphError(f"duplicate edge ({j},{l})")
            seen.add((j, l))
        if self.edges != tuple(sorted(self.edges)):
            raise GraphError("edges must be sorted")

    @classmethod
    def build(cls, vertices: Iterable[int], edges: Iterable[EdgeSpec] = ()) -> "Graph":
        """Normalizing constructor: orders endpoints, defaults weights to 1.0."""
        canon = []
        for spec in edges:
            if len(spec) == 2:
                j, l = spec
                w = 1.0
            elif len(spec) == 3:
                j, l, w = spec
            else:
                raise GraphError(f"edge spec {spec!r} must be (j, l) or (j, l, weight)")
            j, l = int(j), int(l)
            if j > l:
                j, l = l, j
            canon.append((j, l, float(w)))
        return cls(tuple(sorted(int(v) for v in vertices)), tuple(sorted(canon)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> dict[int, dict[int, float]]:
        """Each vertex's neighbours, each with its edge's weight.  The
        edges are sorted with ``j < l``, so each vertex's neighbours are in
        ascending order."""
        adj: dict[int, dict[int, float]] = {v: {} for v in self.vertices}
        for j, l, w in self.edges:
            adj[j][l] = w
            adj[l][j] = w
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.adjacency[v])

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, j: int, l: int) -> bool:
        return l in self.adjacency.get(j, ())

    def weight(self, j: int, l: int) -> float:
        """Adjacency entry; 0.0 when (j, l) is not an edge."""
        return self.adjacency.get(j, {}).get(l, 0.0)

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((j, l) for j, l, _ in self.edges)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        keep = set(vertices)
        if not keep <= set(self.vertices):
            raise GraphError("induced vertex set is not a subset")
        edges = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        return Graph(tuple(sorted(keep)), edges)


def laplacian(g: Graph) -> np.ndarray:
    """Weighted Laplacian L = D - A, rows/columns ordered by ``g.vertices``."""
    index = {v: i for i, v in enumerate(g.vertices)}
    mat = np.zeros((g.n, g.n))
    for j, l, w in g.edges:
        a, b = index[j], index[l]
        mat[a, b] -= w
        mat[b, a] -= w
        mat[a, a] += w
        mat[b, b] += w
    return mat


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def count_triangles(g: Graph) -> int:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    return sum(
        1
        for a, b, c in combinations(g.vertices, 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )


def _greedy_triangle_free(vertices: tuple[int, ...], candidate_edges) -> set[tuple[int, int]]:
    # Greedy over candidate edges in lexicographic (min, max) order; an edge is
    # kept iff its endpoints have no common neighbor among the kept edges.
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    kept: set[tuple[int, int]] = set()
    for j, l in sorted(candidate_edges):
        if adj[j] & adj[l]:
            continue
        kept.add((j, l))
        adj[j].add(l)
        adj[l].add(j)
    return kept


def max_triangle_free_spanning_subgraph(g: Graph) -> Graph:
    """Deterministic maximal triangle-free spanning subgraph of a connected graph.

    Edges are scanned greedily in lexicographic order, so the result is
    reproducible; adding any omitted edge of ``g`` creates a triangle.
    """
    if not is_connected(g):
        raise GraphError("input graph must be connected")
    kept = _greedy_triangle_free(g.vertices, g.edge_pairs())
    edges = tuple(e for e in g.edges if (e[0], e[1]) in kept)
    return Graph(g.vertices, edges)


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of the interference/communication containment check.

    ``kernel`` is the greedy triangle-free subgraph grown from the
    communication edges; the pair passes when the kernel spans connectedly and
    is maximal against the interference edges, i.e. the communication graph
    contains a maximal triangle-free spanning subgraph of the interference
    graph.
    """

    interference_connected: bool
    comm_connected: bool
    comm_subset_of_interference: bool
    kernel_spans: bool
    kernel_maximal: bool
    kernel: Graph
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_containment(g_interference: Graph, g_comm: Graph) -> ContainmentReport:
    if g_interference.vertices != g_comm.vertices:
        raise GraphError("interference and communication graphs must share a vertex set")
    failures = []
    gi_conn = is_connected(g_interference)
    gc_conn = is_connected(g_comm)
    subset = set(g_comm.edge_pairs()) <= set(g_interference.edge_pairs())
    if not gi_conn:
        failures.append("interference graph is not connected")
    if not gc_conn:
        failures.append("communication graph is not connected")
    if not subset:
        failures.append("communication edges are not a subset of interference edges")

    kernel_pairs = _greedy_triangle_free(g_comm.vertices, g_comm.edge_pairs())
    kernel = Graph(
        g_comm.vertices, tuple(e for e in g_comm.edges if (e[0], e[1]) in kernel_pairs)
    )
    spans = is_connected(kernel)
    adj = {v: set(kernel.neighbors(v)) for v in kernel.vertices}
    maximal = all(
        (j, l) in kernel_pairs or (adj[j] & adj[l])
        for j, l in g_interference.edge_pairs()
    )
    if not spans:
        failures.append("triangle-free kernel of the communication graph is not spanning-connected")
    if not maximal:
        failures.append(
            "communication graph contains no maximal triangle-free spanning subgraph "
            "of the interference graph"
        )
    return ContainmentReport(
        interference_connected=gi_conn,
        comm_connected=gc_conn,
        comm_subset_of_interference=subset,
        kernel_spans=spans,
        kernel_maximal=maximal,
        kernel=kernel,
        failures=tuple(failures),
    )


def interference_to_k_graph(g_comm: Graph, g_interference: Graph, k: int) -> Graph:
    """Communication graph restricted to agent ``k``'s closed interference
    neighborhood: keep the interference neighbors of ``k`` plus ``k`` itself,
    and the communication edges among them (weights inherited)."""
    if k not in g_comm.vertices or k not in g_interference.vertices:
        raise GraphError(f"vertex {k} is absent from the graphs")
    keep = set(g_interference.neighbors(k)) | {k}
    return g_comm.induced(keep)


def orthonormal_complement(n: int) -> np.ndarray:
    """An ``n x (n-1)`` matrix with orthonormal columns orthogonal to the
    all-ones vector, built from the Householder reflection that maps the first
    basis vector onto ones/sqrt(n).  Deterministic; ``n == 1`` yields a 1x0
    matrix."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return np.zeros((1, 0))
    u = np.full(n, 1.0 / math.sqrt(n))
    w = -u.copy()
    w[0] += 1.0
    house = np.eye(n) - (2.0 / (w @ w)) * np.outer(w, w)
    return house[:, 1:]
