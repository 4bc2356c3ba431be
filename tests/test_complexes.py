import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstar import complexes
from bstar.complexes import (Complex, FaceCountError, _maximal, components, cone, contrastar,
                             deletion, from_facets, is_flag, join, link,
                             parse, set_max_faces, skeleton, to_json,
                             to_text)
from bstar.constructions import cross_polytope, cycle, example_2_10_i, simplex
from bstar.homology import betti_at
from bstar.linalg import GF2, QQ, FieldSpec
from oracles import closure, faces_by_dim, minimal_nonfaces
from strategies import EDGE_CASES, complexes_up_to_7_vertices


def as_face_sets(c: Complex):
    """All faces as frozensets of labels (for oracle comparison)."""
    out = set()
    for d in range(-1, c.dim + 1):
        for f in c.faces(d):
            out.add(frozenset(c.labels[v] for v in f))
    return out


def isomorphic(a: Complex, b: Complex) -> bool:
    """Brute-force isomorphism check for small complexes."""
    if a.n_vertices != b.n_vertices or sorted(
            len(f) for f in a.facets) != sorted(len(f) for f in b.facets):
        return False
    bf = set(b.facets)
    for perm in itertools.permutations(range(b.n_vertices)):
        if all(tuple(sorted(perm[v] for v in f)) in bf for f in a.facets) \
                and len(a.facets) == len(b.facets):
            return True
    return False


def test_from_facets_dedup():
    c = from_facets([{"a", "b"}, {"b", "c"}, {"a", "b"}])
    assert c.n_vertices == 3
    assert c.facets == ((0, 1), (1, 2))
    assert c.labels == ("a", "b", "c")


def test_from_facets_full_triangle():
    c = from_facets([{"a", "b", "c"}])
    assert c.dim == 2
    assert sum(len(c.faces(d)) for d in range(0, 3)) == 7


def test_from_facets_dominated_faces_removed():
    c = from_facets([[0, 1], [0, 1, 2], [2]])
    assert c.facets == ((0, 1, 2),)


def test_example_graph_counts():
    c = example_2_10_i()
    assert c.dim == 1
    assert c.n_vertices == 5
    assert len(c.facets) == 6


def test_from_facets_rejects_empty():
    with pytest.raises(ValueError, match="no facets"):
        from_facets([])
    with pytest.raises(ValueError, match="no facets"):
        from_facets([[]])


def test_faces_examples(octahedron):
    assert len(octahedron.faces(2)) == 8
    # oracle: subset closure
    fb = faces_by_dim(closure(octahedron.facets))
    assert len(fb[2]) == 8 and len(fb[1]) == 12
    assert from_facets([{"a", "b", "c"}]).faces(1) == [(0, 1), (0, 2), (1, 2)]
    assert octahedron.faces(5) == []
    assert octahedron.faces(-1) == [()]


def test_link_examples(octahedron, torus):
    lk = link(octahedron, [0])
    assert isomorphic(lk, from_facets([(0, 1), (1, 2), (2, 3), (0, 3)]))
    edge_link = link(from_facets([{"a", "b", "c"}]), [0, 1])
    assert edge_link.facets == ((0,),)
    for v in range(7):
        lkv = link(torus, [v])
        assert lkv.f_vector() == (1, 6, 6)
        assert len(components(lkv)) == 1
    with pytest.raises(ValueError, match="not a face"):
        link(octahedron, [0, 1])  # antipodal pair
    assert link(octahedron, []) == octahedron


def test_deletion_examples(octahedron):
    c = example_2_10_i()
    p = c.labels.index("p")
    rest = deletion(c, [p])
    assert as_face_sets(rest) == {frozenset(), frozenset("a"), frozenset("b"),
                                  frozenset("c"), frozenset("d"),
                                  frozenset("ab"), frozenset("cd")}
    rim = deletion(octahedron, [0])
    assert rim.f_vector() == (1, 5, 8, 4)
    assert deletion(octahedron, []) == octahedron


def test_deletion_to_empty_complex():
    c = from_facets([[0, 1]])
    empty = deletion(c, [0, 1])
    assert empty.dim == -1
    assert empty.n_vertices == 0
    assert empty.faces(-1) == [()]


def test_contrastar_examples(octahedron, torus):
    full = from_facets([{"a", "b", "c"}])
    assert isomorphic(contrastar(full, [0, 1, 2]),
                      from_facets([(0, 1), (0, 2), (1, 2)]))
    for v in range(6):
        assert contrastar(octahedron, [v]) == deletion(octahedron, [v])
    with pytest.raises(ValueError):
        contrastar(octahedron, [])


def test_skeleton_examples(torus):
    tetra = simplex(3)
    assert skeleton(tetra, 2).facets == tuple(
        tuple(sorted(f)) for f in itertools.combinations(range(4), 3))
    octa = cross_polytope(3)
    g = skeleton(octa, 1)
    assert g.f_vector() == (1, 6, 12)
    k7 = skeleton(torus, 1)
    assert k7.f_vector() == (1, 7, 21)
    assert skeleton(octa, 2) == octa
    with pytest.raises(ValueError):
        skeleton(octa, -1)


def test_join_examples(octahedron):
    s0 = cross_polytope(1)
    square = join(s0, s0)
    assert isomorphic(square, cross_polytope(2))
    octa = join(square, s0)
    assert isomorphic(octa, octahedron)
    pt = from_facets([["x"]])
    c = join(pt, from_facets([(0, 1), (1, 2)]))
    assert c.dim == 2 and c.n_vertices == 4


def test_join_associative_up_to_relabeling():
    s0 = cross_polytope(1)
    edge = from_facets([(0, 1)])
    left = join(join(s0, edge), s0)
    right = join(s0, join(edge, s0))
    assert isomorphic(left, right)


def test_cone_examples(octahedron):
    assert isomorphic(cone(cross_polytope(1)), from_facets([(0, 1), (1, 2)]))
    c3 = from_facets([(0, 1), (0, 2), (1, 2)])
    assert cone(c3).f_vector() == (1, 4, 6, 3)
    ball = cone(octahedron)
    assert ball.n_vertices == 7 and ball.dim == 3


def test_cone_refuses_an_apex_label_of_the_base():
    c = from_facets([("apex", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="apex label 'apex' is already a vertex label"):
        cone(c)
    with pytest.raises(ValueError, match="apex label 'b'"):
        cone(c, "b")
    assert cone(c, "d").labels == ("apex", "b", "c", "d")


def test_predicates(octahedron, torus):
    assert octahedron.is_pure and is_flag(octahedron) and len(components(octahedron)) == 1
    assert len(octahedron.faces(1)) == 12
    assert torus.is_pure and not is_flag(torus) and len(components(torus)) == 1
    two = from_facets([(0, 1), (2, 3)])
    assert two.is_pure and is_flag(two) and len(components(two)) == 2
    mixed = from_facets([(0, 1, 2), (2, 3)])
    assert not mixed.is_pure


def test_octahedron_minimal_nonfaces(octahedron):
    assert minimal_nonfaces(octahedron) == [(0, 1), (2, 3), (4, 5)]


def test_flagness_scales_with_faces():
    # the vertex-subset sweep would take hours on the 1000-cycle
    assert is_flag(cycle(1000))
    assert not is_flag(cycle(3))


# -- properties over random complexes ----------------------------------

@st.composite
def random_complexes(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 5))
    facets = []
    for _ in range(k):
        size = draw(st.integers(1, min(4, n)))
        facets.append(draw(st.permutations(range(n)))[:size])
    return from_facets(facets)


@st.composite
def complexes_up_to_8_vertices(draw):
    n = draw(st.integers(1, 8))
    facets = []
    for _ in range(draw(st.integers(1, 10))):
        size = draw(st.integers(1, n))
        facets.append(draw(st.permutations(range(n)))[:size])
    # skeletons of big faces have minimal non-faces of every size
    return skeleton(from_facets(facets), draw(st.integers(0, 7)))


@given(complexes_up_to_8_vertices())
@settings(max_examples=150, deadline=None)
def test_flagness_matches_minimal_nonfaces(c):
    assert is_flag(c) == all(len(nf) == 2 for nf in minimal_nonfaces(c))
    assert c.is_pure == (len({len(f) for f in c.facets}) == 1)


@given(st.one_of(complexes_up_to_7_vertices(), st.sampled_from(list(EDGE_CASES.values()))))
@settings(max_examples=150, deadline=None)
def test_components_partition_the_facets(c):
    comps = components(c)
    # the nonempty facets, by label; {∅} has none and no component
    facets = Counter(frozenset(c.face_labels(f)) for f in c.facets if f)
    assert Counter(frozenset(k.face_labels(f)) for k in comps for f in k.facets) == facets
    assert sum(k.n_vertices for k in comps) == c.n_vertices
    firsts = [c.labels.index(k.labels[0]) for k in comps]
    assert firsts == sorted(firsts)
    for f in (QQ, GF2, FieldSpec(3)):
        assert all(betti_at(k, f, 0) == 0 for k in comps)
        if c.n_vertices:
            assert len(comps) == betti_at(c, f, 0) + 1
        else:  # {∅}: no component, though its reduced beta_0 + 1 is 1
            assert comps == () and betti_at(c, f, 0) + 1 == 1


@given(st.lists(st.integers(0, 63), max_size=12))
@settings(max_examples=300, deadline=None)
def test_maximal_is_the_antichain_of_maximal_masks(masks):
    # duplicates collapse; 0 is dominated by any other mask
    distinct = set(masks)
    want = {m for m in distinct if not any(m & k == m and m != k for k in distinct)}
    got = _maximal(masks)
    assert len(got) == len(want) and set(got) == want


class CountingMask(int):
    """A mask that counts the times it is ANDed with another such mask."""

    ands = 0

    def __and__(self, other):
        if isinstance(other, CountingMask):
            CountingMask.ands += 1
        return int(self) & other


def test_maximal_compares_no_two_masks_of_one_size():
    # a cone over an n-cycle, apex vertex 0, and the cycle's n edges: every
    # triangle passes through vertex 0, but only the edges are compared,
    # each with at most the two triangles through its lowest vertex
    n = 400
    triangles = [CountingMask(1 | 1 << i | 1 << i % n + 1) for i in range(1, n + 1)]
    edges = [CountingMask(1 << i | 1 << i % n + 1) for i in range(1, n + 1)]
    CountingMask.ands = 0
    assert sorted(_maximal(triangles + edges)) == sorted(triangles)
    assert n <= CountingMask.ands <= 2 * n


@given(random_complexes())
@settings(max_examples=50, deadline=None)
def test_contrastar_of_vertex_is_deletion(c):
    for v in range(c.n_vertices):
        assert contrastar(c, [v]) == deletion(c, [v])


@given(random_complexes(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_skeleton_composition(c, i, j):
    i, j = min(i, c.dim), min(j, c.dim)
    if min(i, j) < 0:
        return
    assert skeleton(skeleton(c, i), j) == skeleton(c, min(i, j))


@given(random_complexes())
@settings(max_examples=40, deadline=None)
def test_deletion_order_independent(c):
    verts = list(range(min(3, c.n_vertices)))
    if len(verts) < 2:
        return
    once = deletion(c, verts)
    step = c
    for v in sorted(verts, reverse=True):  # delete by original index, high first
        lbl = step.labels.index(c.labels[v])
        step = deletion(step, [lbl])
    assert step == once


@given(random_complexes())
@settings(max_examples=40, deadline=None)
def test_link_round_trip(c):
    for d in range(0, c.dim + 1):
        for face in c.faces(d):
            lk = link(c, face)
            face_labels = set(c.face_labels(face))
            for dd in range(0, lk.dim + 1):
                for t in lk.faces(dd):
                    union = set(lk.face_labels(t)) | face_labels
                    idx = [c.labels.index(lab) for lab in union]
                    assert c.is_face(idx)


@given(st.one_of(random_complexes(), complexes_up_to_7_vertices()))
@settings(max_examples=60, deadline=None)
def test_link_is_the_complex_of_the_sets_g_minus_f(c):
    # a link takes the facets through the face's lowest vertex, in facet
    # order, and keeps their sets G - F with no `_maximal` and no sort: it
    # equals, facet order and hash included, the complex built from them
    for d in range(c.dim + 1):
        for s in c.face_masks(d):
            expected = complexes._rebuild([g & ~s for g in c._facet_masks if g & s == s], c)
            lk = link(c, [v for v in range(c.n_vertices) if s >> v & 1])
            assert lk == expected and hash(lk) == hash(expected)


@given(random_complexes())
@settings(max_examples=40, deadline=None)
def test_from_facets_idempotent(c):
    again = from_facets([c.face_labels(f) for f in c.facets])
    assert again == c


@given(random_complexes())
@settings(max_examples=40, deadline=None)
def test_join_f_polynomial_multiplies(c):
    other = from_facets([(0, 1)])
    j = join(c, other)
    # f-polynomials with the f_{-1}=1 term included
    def fpoly(x):
        f = x.f_vector()
        return f
    fa, fb, fj = fpoly(c), fpoly(other), fpoly(j)
    for k in range(len(fj)):
        conv = sum(fa[i] * fb[k - i] for i in range(len(fa))
                   if 0 <= k - i < len(fb))
        assert fj[k] == conv


def test_parse_round_trip(octahedron):
    text = to_json(octahedron)
    back = parse(text)
    assert isomorphic(back, octahedron)
    plain = to_text(octahedron)
    assert isomorphic(parse(plain), octahedron)
    with pytest.raises(ValueError):
        parse("{\"wrong\": []}")


def test_serialization_rejects_labels_that_print_alike():
    c = from_facets([[1, "1"], [1, 2]])
    assert c.n_vertices == 3
    for write in (to_json, to_text):
        with pytest.raises(ValueError, match="labels 1 and '1'"):
            write(c)


def test_to_text_refuses_labels_the_text_cannot_carry():
    for facets in ([["a b", "c"], ["c", "d"]], [["", "x"]], [["{x", "y"]], [["\ufeffx"]]):
        with pytest.raises(ValueError, match="cannot be written as text"):
            to_text(from_facets(facets))


LABELS = st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                   st.floats(allow_nan=True, width=16), st.text(max_size=3),
                   st.sampled_from(["", " ", "a b", "{", "{x", "x{", "\ufeffx"]))


@given(st.lists(st.lists(LABELS, min_size=1, max_size=4), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_serialization_round_trips_or_refuses(facets):
    """`to_json` and `to_text`, parsed back, give the facets under string
    labels, or refuse with ValueError exactly when the module docstring
    says they do."""
    try:
        c = from_facets(facets)
    except ValueError:  # distinct labels that Python holds equal
        return
    names = [str(lab) for lab in c.labels]
    alike = len(set(names)) < len(names)
    unwritable = any(n.split() != [n] or n.startswith(("{", "\ufeff")) for n in names)
    expected = sorted(sorted(names[v] for v in f) for f in c.facets)
    for write, refused in ((to_json, alike), (to_text, alike or unwritable)):
        if refused:
            with pytest.raises(ValueError):
                write(c)
        else:
            back = parse(write(c))
            assert sorted(sorted(back.labels[v] for v in f) for f in back.facets) == expected


@pytest.mark.parametrize("facets, pair", [
    ([[1, 2], [True, 3]], "1 and True"),
    ([[0, 2], [False, 3]], "0 and False"),
    ([[1.0, 2], [1, 3]], "1.0 and 1"),
])
def test_parse_rejects_distinct_labels_python_holds_equal(facets, pair):
    with pytest.raises(ValueError, match=f"labels {pair} "):
        parse(json.dumps({"facets": facets}))
    assert parse(json.dumps({"facets": [[1, 2], [1, 3], ["1", None]]})).n_vertices == 5


def test_from_facets_rejects_distinct_labels_python_holds_equal():
    with pytest.raises(ValueError, match="labels 1 and True are equal"):
        from_facets([[1, 2], [True, 3]])
    with pytest.raises(ValueError, match="labels 1 and True are equal"):
        from_facets([[1, True]])  # within one facet, before a set merges them
    assert from_facets(iter([(1, 2), (2, 3)])).n_vertices == 3  # facets read once


def test_serialization_stable(torus):
    assert to_json(torus) == to_json(from_facets(
        [torus.face_labels(f) for f in torus.facets]))
    data = json.loads(to_json(torus))
    assert data["facets"] == sorted(data["facets"])


def test_face_guard(monkeypatch):
    monkeypatch.setattr(complexes, "_max_faces", complexes._max_faces)
    set_max_faces(10)
    c = from_facets([range(6)])
    with pytest.raises(FaceCountError):
        c.f_vector()


@pytest.mark.parametrize("limit", [11, 12])
def test_face_guard_is_exact(monkeypatch, limit):
    # two triangles on an edge have 12 faces, the empty face included;
    # under a guard of 12 the second facet's faces pass one at a time
    monkeypatch.setattr(complexes, "_max_faces", limit)
    c = from_facets([(0, 1, 2), (1, 2, 3)])
    if limit < 12:
        for faces in (c.f_vector, lambda: complexes._face_set(c._facet_masks)):
            with pytest.raises(FaceCountError, match=f"face guard of {limit} faces"):
                faces()
    else:
        assert len(complexes._face_set(c._facet_masks)) == 12
        assert c.f_vector() == (1, 4, 5, 2)
