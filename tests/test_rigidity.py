import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy

from bstar import rigidity
from bstar.constructions import cross_polytope, cycle, path, simplex_boundary
from bstar.linalg import GF2, QQ, FieldSpec, sparse_rank
from bstar.rigidity import (Graph, _rigidity_columns, graph_of, is_generically_d_rigid,
                            vertex_connectivity)
from oracles import connectivity_by_all_pairs, connectivity_by_cuts, rank_modular


def complete_graph(n):
    return Graph(n, frozenset(itertools.combinations(range(n), 2)))


def test_connectivity_complete():
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(complete_graph(2)) == 1


def test_connectivity_path():
    g = graph_of(path(3))
    assert vertex_connectivity(g) == 1


def test_connectivity_octahedron(octahedron):
    g = graph_of(octahedron)
    assert connectivity_by_cuts(g.n, g.edges) == 4
    assert vertex_connectivity(g) == 4


def test_connectivity_disconnected():
    g = Graph(4, frozenset({(0, 1), (2, 3)}))
    assert vertex_connectivity(g) == 0


def test_connectivity_matches_cut_oracle(torus):
    cases = [graph_of(torus), graph_of(cross_polytope(2)),
             graph_of(simplex_boundary(3)),
             Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)}))]
    for g in cases:
        assert vertex_connectivity(g) == connectivity_by_cuts(g.n, g.edges)


@st.composite
def graphs_up_to(draw, max_n):
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(["complete", "random", "split"]))
    if kind == "complete":
        return complete_graph(n)
    edges = {p for p in itertools.combinations(range(n), 2) if draw(st.booleans())}
    if kind == "split":  # no edge between the two parts: not connected
        k = draw(st.integers(1, n - 1))
        edges = {(a, b) for a, b in edges if (a < k) == (b < k)}
    return Graph(n, frozenset(edges))


@given(graphs_up_to(8))
@settings(max_examples=200, deadline=None)
def test_connectivity_matches_cut_oracle_on_random_graphs(g):
    assert vertex_connectivity(g) == connectivity_by_cuts(g.n, g.edges)


@given(graphs_up_to(14))
@settings(max_examples=200, deadline=None)
def test_connectivity_matches_all_pairs_oracle_on_random_graphs(g):
    assert vertex_connectivity(g) == connectivity_by_all_pairs(g)


def test_connectivity_flows_start_from_the_first_kappa_plus_one_vertices(monkeypatch):
    # a 60-cycle has κ = 2: sources 0, 1, 2 only, each with at most 59
    # targets, where every nonadjacent pair would run 1,710 flows
    sources = []

    def counting_flow(adj, n, s, t):
        sources.append(s)
        return flow(adj, n, s, t)

    flow = rigidity._max_internally_disjoint
    monkeypatch.setattr(rigidity, "_max_internally_disjoint", counting_flow)
    assert vertex_connectivity(graph_of(cycle(60))) == 2
    assert set(sources) <= {0, 1, 2} and len(sources) <= 3 * 59


def test_connectivity_requires_two_nodes():
    with pytest.raises(ValueError):
        vertex_connectivity(Graph(1, frozenset()))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))


def test_rigidity_single_edge():
    g = Graph(2, frozenset({(0, 1)}))
    assert is_generically_d_rigid(g, 1)
    assert is_generically_d_rigid(g, 2)  # two points are rigid in the plane


def test_rigidity_path_flexible():
    g = graph_of(path(3))
    assert is_generically_d_rigid(g, 1)
    assert not is_generically_d_rigid(g, 2)


def test_rigidity_of_graphs_with_at_most_d_plus_1_vertices(monkeypatch):
    # n <= d + 1 points in general position span an (n-1)-simplex, so the
    # graph is rigid iff it is complete, which is read off the edge count
    # with no placement or rank
    monkeypatch.setattr(rigidity, "sparse_rank", None)
    assert is_generically_d_rigid(Graph(1, frozenset()), 1)
    assert is_generically_d_rigid(complete_graph(3), 4)
    assert not is_generically_d_rigid(graph_of(path(3)), 4)
    assert not is_generically_d_rigid(Graph(2, frozenset()), 3)
    assert is_generically_d_rigid(complete_graph(5), 7)
    k5_minus_edge = Graph(5, complete_graph(5).edges - {(0, 1)})
    assert not is_generically_d_rigid(k5_minus_edge, 7)


def test_rigidity_flexible_with_enough_edges(monkeypatch):
    # K4 and a triangle hinged at vertex 3: 9 = 2n - 3 edges, yet the
    # triangle turns about the hinge, so every trial falls short of the
    # target rank modulo p and over Q before the verdict is False
    fields = []

    def counting_rank(columns, nrows, field):
        fields.append(field.p is None)
        return sparse_rank(columns, nrows, field)

    monkeypatch.setattr(rigidity, "sparse_rank", counting_rank)
    g = Graph(6, frozenset([*itertools.combinations(range(4), 2), (3, 4), (3, 5), (4, 5)]))
    assert len(g.edges) == 2 * g.n - 3
    assert not is_generically_d_rigid(g, 2)
    assert fields == [False, True] * 3


def test_rigidity_octahedron(octahedron):
    g = graph_of(octahedron)
    assert len(g.edges) == 12
    assert is_generically_d_rigid(g, 3)


def test_rigidity_torus(torus):
    assert is_generically_d_rigid(graph_of(torus), 3)


def test_rigidity_squares():
    square = graph_of(cross_polytope(2))
    assert not is_generically_d_rigid(square, 2)  # a 4-cycle flexes
    assert is_generically_d_rigid(square, 1)


def test_rigidity_deterministic(octahedron):
    g = graph_of(octahedron)
    runs = {is_generically_d_rigid(g, 3, seed=11) for _ in range(3)}
    assert runs == {True}
    flex = graph_of(path(3))
    assert all(not is_generically_d_rigid(flex, 2, seed=s) for s in range(5))


def test_rigid_implies_connected(octahedron, torus):
    for g, d in [(graph_of(octahedron), 3), (graph_of(torus), 3),
                 (graph_of(simplex_boundary(3)), 3)]:
        if is_generically_d_rigid(g, d):
            assert vertex_connectivity(g) >= d


def test_rigidity_matrix_shape():
    # one column per edge, p(u)-p(v) at u's coordinates and p(v)-p(u) at v's
    columns = _rigidity_columns([(0, 0), (1, 0), (0, 1)], [(1, 2), (0, 1)], 2)
    assert columns == [{0: -1, 2: 1}, {2: 1, 3: -1, 4: -1, 5: 1}]


def test_rigidity_columns_are_the_transposed_matrix():
    # the decider ranks one sparse column per edge (2d entries); the
    # rigidity matrix, one row per edge, has that rank over every field
    g = graph_of(cross_polytope(3))
    placement = [(3, -1, 4), (1, 5, -9), (2, 6, 5), (-3, 8, 7), (9, 7, -2), (5, 2, 3)]
    columns = _rigidity_columns(placement, g.edges, 3)
    assert all(len(col) == 6 for col in columns)

    def row(u, v):
        r = [0] * (3 * g.n)
        for k in range(3):
            r[3 * u + k] = placement[u][k] - placement[v][k]
            r[3 * v + k] = -r[3 * u + k]
        return r
    rows = sympy.Matrix([row(u, v) for u, v in sorted(g.edges)])
    assert [{i: x for i, x in enumerate(r) if x} for r in rows.tolist()] == columns
    for f in (QQ, GF2, FieldSpec(7)):
        want = rows.rank() if f.p is None else rank_modular(rows, f.p)
        assert sparse_rank(columns, 3 * g.n, f) == want
