"""Vertex connectivity and randomized generic rigidity of graphs.

Connectivity is exact: internally-disjoint path counts via unit-capacity
max-flow on a vertex-split digraph, from each source s = 0, 1, ... to
every later vertex not adjacent to it, while s is below the least count
found (complete graphs are n-1 connected by convention).  Sources
0, ..., κ suffice: for a minimum separator S, the first vertex v_i not
in S has i ≤ κ, every vertex before it lies in S, so a vertex of
another component of G − S comes after v_i, is not adjacent to it, and
carries a flow of κ.  So κ takes at most (κ + 1)·n flows.

Rigidity in dimension d is decided by the rank of the bar-joint rigidity
matrix at random integer placements.  The matrix is only ever held as its
transpose, one sparse column per edge (`_rigidity_columns`).  A
placement certifying the maximal rank proves generic rigidity outright;
sub-maximal modular rank is re-checked exactly over the rationals before
a trial counts as evidence of flexibility, so only "flexible" verdicts
carry (vanishing) error probability.
"""

from __future__ import annotations

import random
from collections import deque

from .complexes import Complex
from .linalg import FieldSpec, QQ, is_prime, sparse_rank

__all__ = ["Graph", "graph_of", "vertex_connectivity", "is_generically_d_rigid"]

_TRIALS = 3  # random placements tried before a graph is called flexible


class Graph:
    """A simple graph on the vertices 0, ..., n-1; each edge a sorted pair."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        for a, b in edges:
            if a == b:
                raise ValueError("loops are not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("edge endpoint out of range")
            if a > b:
                raise ValueError("edges must be sorted pairs")
        self.n = n
        self.edges = edges


def graph_of(c: Complex) -> Graph:
    """The 1-skeleton of a complex as an abstract graph."""
    return Graph(c.n_vertices, frozenset(c.faces(1)))


def _max_internally_disjoint(adj: list[set[int]], n: int, s: int, t: int) -> int:
    """Menger count via unit-capacity max-flow with node splitting; the
    flow value does not depend on which augmenting paths are found."""
    # node 2v = v_in, 2v+1 = v_out; v_in -> v_out capacity 1, edges capacity n
    cap: dict[tuple[int, int], int] = {}
    nbr: list[set[int]] = [set() for _ in range(2 * n)]

    def add(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        nbr[u].add(v)
        nbr[v].add(u)

    for v in range(n):
        add(2 * v, 2 * v + 1, 1)
    for u in range(n):
        for w in adj[u]:
            if u < w:
                add(2 * u + 1, 2 * w, n)
                add(2 * w + 1, 2 * u, n)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        prev = {source: source}
        queue = deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v in nbr[u]:
                if v not in prev and cap.get((u, v), 0) > 0:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            return flow
        v = sink
        while v != source:
            u = prev[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; n-1 for complete graphs.  Flows start
    only from the first κ + 1 vertices (module docstring)."""
    if g.n < 2:
        raise ValueError("connectivity needs at least two nodes")
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    best, s = g.n - 1, 0
    while s < best:
        for t in range(s + 1, g.n):
            if t not in adj[s]:
                best = min(best, _max_internally_disjoint(adj, g.n, s, t))
        s += 1
    return best


def _rigidity_columns(placement: list[tuple[int, ...]], edges, d: int) -> list[dict]:
    """The rows of the rigidity matrix as sparse columns (see `linalg`) of
    its transpose, one per edge {u,v} in sorted order, with at most 2d
    entries: block p(u)-p(v) at u and p(v)-p(u) at v."""
    columns = []
    for u, v in sorted(edges):
        col = {}
        for k in range(d):
            diff = placement[u][k] - placement[v][k]
            if diff:
                col[d * u + k] = diff
                col[d * v + k] = -diff
        columns.append(col)
    return columns


def _random_prime(rng: random.Random) -> int:
    while True:
        cand = rng.randrange(2**30, 2**31) | 1
        if is_prime(cand):
            return cand


def is_generically_d_rigid(g: Graph, d: int, seed: int = 0) -> bool:
    """Randomized generic d-rigidity test.

    Rigid iff complete, for n <= d + 1; else iff some trial placement
    achieves rank d*n - C(d+1,2).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    n = g.n
    if n <= d + 1:
        return len(g.edges) == n * (n - 1) // 2
    target = d * n - d * (d + 1) // 2
    if len(g.edges) < target:
        return False
    rng = random.Random(seed)
    for _ in range(_TRIALS):
        placement = [tuple(rng.randrange(-2**31, 2**31) for _ in range(d))
                     for _ in range(n)]
        columns = _rigidity_columns(placement, g.edges, d)
        p = _random_prime(rng)
        if sparse_rank(columns, d * n, FieldSpec(p)) == target:
            return True
        if sparse_rank(columns, d * n, QQ) == target:
            return True
    return False
