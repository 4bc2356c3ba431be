import gc
import itertools
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bstar.complexes import (Complex, FaceCountError, _bits, _submasks, contrastar,
                             deletion, from_facets, join, skeleton)
from bstar.constructions import (cross_polytope, cycle, example_2_10_iii, path, rp2_6,
                                 simplex, simplex_boundary, torus7)
from bstar.homology import (betti, betti_at, contrastar_betti, first_nonbounding_cycle,
                            inclusion_induced_is_zero,
                            reduced_euler_characteristic, relative_betti,
                            relative_surjectivity, top_projection_surjective,
                            _boundary, _embedded_face_set, _kept_betti,
                            _nonbounding_cycle, _projection_cokernel)
from bstar.linalg import GF2, QQ, FieldSpec, LinalgGuardError
from bstar.properties import is_buchsbaum_star, is_cohen_macaulay
from bstar import clear_caches, complexes, homology, linalg
from oracles import (betti_by_full_ranks, betti_numbers, nonbounding_cycle_by_span_tests,
                     pair_homology, projection_cokernel_by_rank,
                     relative_betti_by_full_ranks, signed_column)
from strategies import complexes_up_to_7_vertices

FIELDS = (QQ, GF2, FieldSpec(3))


def test_sphere_betti(sphere2):
    assert betti(sphere2, QQ).betti == (0, 0, 0, 1)
    assert betti(sphere2, GF2).betti == (0, 0, 0, 1)


def test_torus_betti(torus):
    # independently derived via subset closure + sympy/modular elimination
    assert betti_numbers(torus.facets) == (0, 0, 2, 1)
    assert betti(torus, QQ).betti == (0, 0, 2, 1)
    assert betti(torus, GF2).betti == (0, 0, 2, 1)
    assert betti(torus, FieldSpec(7)).betti == (0, 0, 2, 1)


def test_projective_plane_betti(projective_plane):
    assert betti_numbers(projective_plane.facets, 2) == (0, 0, 1, 1)
    assert betti(projective_plane, GF2).betti == (0, 0, 1, 1)
    assert betti(projective_plane, QQ).betti == (0, 0, 0, 0)


def test_empty_complex_betti():
    empty = deletion(from_facets([[0]]), [0])
    assert betti(empty, QQ).betti == (1,)
    assert betti_at(empty, QQ, -1) == 1


def test_points_betti():
    pts = from_facets([[0], [1], [2]])
    assert betti(pts, QQ).betti == (0, 2)


def test_boundary_squares_to_zero(torus, octahedron):
    # whole complexes down to the (-1)-cell, the quotient by a subcomplex
    # (here the 1-skeleton), and the star of a vertex
    for c in (torus, octahedron, example_2_10_iii()):
        excluded = _embedded_face_set(skeleton(c, 1), c)
        for keep in (lambda m: True, lambda m: m not in excluded, lambda m: m & 1 == 1):
            cells = {d: [m for m in c.face_masks(d) if keep(m)] for d in range(-2, c.dim + 1)}
            for d in range(0, c.dim + 1):
                upper = [signed_column(*col) for col in _boundary(cells[d], cells[d - 1])]
                lower = [signed_column(*col) for col in _boundary(cells[d - 1], cells[d - 2])]
                assert len(upper) == len(cells[d]) and len(lower) == len(cells[d - 1])
                assert all(0 <= i < len(cells[d - 1]) for col in upper for i in col)
                for col in upper:
                    image = {}
                    for k, x in col.items():
                        for i, y in lower[k].items():
                            image[i] = image.get(i, 0) + x * y
                    assert not any(image.values())


@given(complexes_up_to_7_vertices())
@example(torus7())
@example(rp2_6())  # torsion: the ranks over Q and GF(2) differ
@example(deletion(simplex(0), [0]))  # the complex {∅}
@example(from_facets([(0, 1), (1, 2, 3)]))  # no pivot above clears the bridge 01
@settings(max_examples=150, deadline=None)
def test_betti_matches_full_bottom_up_ranks(c):
    for f in FIELDS:
        assert betti(c, f).betti == betti_by_full_ranks(c, f)


@given(complexes_up_to_7_vertices(), st.integers(min_value=0))
@example(rp2_6(), 0)
@settings(max_examples=150, deadline=None)
def test_relative_betti_matches_full_ranks(c, k):
    subcomplexes = [skeleton(c, max(c.dim - 1, 0))]
    faces = [f for d in range(c.dim + 1) for f in c.faces(d)]
    if faces:  # c is not {∅}
        subcomplexes.append(contrastar(c, faces[k % len(faces)]))
    for a in subcomplexes:
        excluded = _embedded_face_set(a, c)
        for f in FIELDS:
            table = [relative_betti_by_full_ranks(c, excluded, f, i)
                     for i in range(-1, c.dim + 1)]
            for low in range(-1, c.dim + 1):
                assert (_kept_betti(c, lambda m: m not in excluded, f, low)
                        == tuple(table[low + 1:]))
            assert relative_betti(c, a, f, c.dim + 1) == 0


@given(complexes_up_to_7_vertices())
@example(from_facets([[0]]))  # the contrastar of its one vertex is {∅}
@example(torus7())
@example(rp2_6())
@settings(max_examples=150, deadline=None)
def test_contrastar_betti_matches_rebuilt_contrastar(c):
    for d in range(c.dim + 1):
        for t in c.faces(d):
            cost = contrastar(c, t)
            for f in FIELDS:
                for i in range(-1, c.dim + 1):
                    assert contrastar_betti(c, t, f, i) == betti(cost, f).at(i)


@given(complexes_up_to_7_vertices(), st.integers(min_value=0))
@example(from_facets([(0, 1, 2), (2, 3)]), 0)  # not pure
@example(from_facets([(0, 1), (2,)]), 1)  # not pure, with a point
@example(from_facets([[0]]), 0)  # the contrastar of its one vertex is {∅}
@example(torus7(), 3)
@example(rp2_6(), 5)
@settings(max_examples=100, deadline=None)
def test_pairs_and_contrastars_read_the_columns_their_complex_built_once(c, k):
    # one complex answers every query below, over Q, GF(2) and GF(3), from
    # the boundary columns it built on the first: each contrastar Betti
    # number against the contrastar rebuilt, and each pair, with the
    # contrastar or with a skeleton, against the boundaries of its kept
    # cells built from scratch
    faces = [f for d in range(c.dim + 1) for f in c.faces(d)]
    if not faces:  # c is {∅}
        return
    faces = faces[k % len(faces):] + faces[:k % len(faces)]  # start at any face
    skel = skeleton(c, max(c.dim - 1, 0))
    for f in FIELDS:
        for t in faces:
            cost = contrastar(c, t)
            for a in (cost, skel):
                excluded = _embedded_face_set(a, c)
                for i in range(-1, c.dim + 1):
                    assert (relative_betti(c, a, f, i)
                            == relative_betti_by_full_ranks(c, excluded, f, i))
            for i in range(-1, c.dim + 1):
                assert contrastar_betti(c, t, f, i) == betti(cost, f).at(i)
    memo = homology._shapes[c._shape]
    assert all(len(memo[key]) == len(c.face_masks(key[1]))
               for key in memo if key[0] is homology._columns.__wrapped__)


def test_contrastar_betti_refuses_what_contrastar_refuses(torus):
    with pytest.raises(ValueError, match="empty face"):
        contrastar_betti(torus, [], QQ, 1)
    with pytest.raises(ValueError, match="not a face"):
        contrastar_betti(from_facets([[0], [1]]), [0, 1], QQ, 0)


def test_betti_hands_reduce_only_the_uncleared_columns(monkeypatch):
    handed = []
    reduce = linalg._reduce

    def counting_reduce(columns, *args, **kwargs):
        handed.append(len(columns))
        return reduce(columns, *args, **kwargs)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    clear_caches()
    assert betti(cross_polytope(4), QQ).betti == (0, 0, 0, 0, 1)
    # f = (1, 8, 24, 32, 16); each degree hands over f_i minus the rank
    # of the degree above, from the top down (in full: 8 + 24 + 32 + 16 = 80)
    assert handed == [16, 17, 7, 1]
    assert sum(handed) == 41


def test_a_pair_table_reduces_each_boundary_map_once(monkeypatch):
    handed = []
    reduce = linalg._reduce

    def counting_reduce(columns, nrows, *args, **kwargs):
        handed.append((len(columns), nrows))
        return reduce(columns, nrows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    c = cross_polytope(4)
    excluded = _embedded_face_set(contrastar(c, c.faces(0)[0]), c)
    for f in FIELDS:
        handed.clear()
        assert _kept_betti(c, lambda m: m not in excluded, f) == (0, 0, 0, 0, 1)
        # the kept cells are the 1 + 6 + 12 + 8 faces through a vertex; from
        # the top down each map is handed over once, less the columns the
        # map above cleared, and the map out of the vertex, with no row
        # (the empty face is not kept), is not handed over at all
        assert handed == [(8, 12), (5, 6), (1, 1)]


def test_a_single_degree_ranks_only_the_two_maps_next_to_it(monkeypatch):
    handed = []
    reduce = linalg._reduce

    def counting_reduce(columns, nrows, *args, **kwargs):
        handed.append((len(columns), nrows))
        return reduce(columns, nrows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    # the map out of the 8-faces of this 9-sphere is above the cell guard,
    # so degree 0 answers only if no map above degree 1 is built
    c = cross_polytope(10)
    v = c.faces(0)[0]
    # f_0 = 20 and f_1 = C(20, 2) - 10 = 180; the vertex excluded from the
    # pair is no row, and the map out of its 19 vertices has no row at all
    assert relative_betti(c, from_facets([v]), QQ, 0) == 0
    assert handed == [(180, 19)]
    handed.clear()
    # the contrastar of v keeps the 162 edges and 19 vertices off v; its
    # edges leave one vertex uncleared, over the empty face
    assert contrastar_betti(c, v, QQ, 0) == 0
    assert handed == [(162, 19), (1, 1)]


def test_betti_refuses_a_map_above_the_cell_guard_before_building_it(monkeypatch):
    # the boundary of a 6000-cycle has 6000 x 6000 cells, one above the
    # guard set here; its pair columns, each as wide as its highest row,
    # would take about n^2 / 8 bytes (4.5 MB), and none is built
    n = 6000
    c = cycle(n)
    c.f_vector()  # the faces are enumerated outside the measurement
    monkeypatch.setattr(linalg, "_max_cells", n * n - 1)
    tracemalloc.start()
    try:
        for field in FIELDS:
            with pytest.raises(LinalgGuardError, match=f"{n}x{n} cells"):
                betti(c, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_contrastar_counts_the_full_map_it_reads_under_the_cell_guard(monkeypatch):
    # degree 1 of the contrastar of a vertex of the octahedron ranks its 4
    # triangles on its 8 edges, read from the map out of all 8 triangles
    # on all 12 edges, which the guard counts where it is built
    clear_caches()  # a memoised map is read, not built
    monkeypatch.setattr(linalg, "_max_cells", 50)
    with pytest.raises(LinalgGuardError, match="12x8 cells"):
        contrastar_betti(cross_polytope(3), (0,), QQ, 1)


def test_a_contrastar_refuses_a_full_map_above_the_cell_guard_before_building_it(monkeypatch):
    # degree 0 of the contrastar of a vertex of a 6000-cycle ranks 5998
    # edges on 5999 vertices, below the guard set here, but reads them from
    # the map out of every edge, 6000 x 6000 cells, one above it; its pair
    # columns would take about n^2 / 8 bytes (4.5 MB), and none is built
    n = 6000
    c = cycle(n)
    c.f_vector()  # the faces and the facet index are built outside the measurement
    c.has_mask(1)
    clear_caches()
    monkeypatch.setattr(linalg, "_max_cells", n * n - 1)
    tracemalloc.start()
    try:
        for field in FIELDS:
            with pytest.raises(LinalgGuardError, match=f"{n}x{n} cells"):
                contrastar_betti(c, (0,), field, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_complexes_of_one_shape_build_each_degree_of_columns_once(monkeypatch):
    built = []
    boundary = homology._boundary

    def counting_boundary(cells, rows):
        built.append(len(cells))
        return boundary(cells, rows)

    monkeypatch.setattr(homology, "_boundary", counting_boundary)
    c = cross_polytope(3)
    relabelled = from_facets([[f"v{v}" for v in f] for f in c.facets])
    assert relabelled._shape == c._shape and relabelled.labels != c.labels
    clear_caches()
    for a in (c, relabelled):
        for f in FIELDS:
            for t in (t for d in range(a.dim + 1) for t in a.faces(d)):
                for i in range(-1, a.dim + 1):
                    contrastar_betti(a, t, f, i)
    assert sum(built) == 6 + 12 + 8  # the vertices, edges and triangles, once
    clear_caches()
    built.clear()
    contrastar_betti(relabelled, (0,), QQ, 1)
    assert built == [8, 12]  # the maps out of the triangles and the edges, again


def test_subcomplex_embedding_keeps_the_face_guard(monkeypatch):
    # a subcomplex is embedded by the submasks of its facets, under the
    # face guard of `Complex.face_masks`
    monkeypatch.setattr(complexes, "_max_faces", 1000)
    c = from_facets([range(12)])  # 4096 faces
    for call in (lambda: relative_betti(c, c, QQ, 0),
                 lambda: inclusion_induced_is_zero(c, c, 0, QQ),
                 lambda: first_nonbounding_cycle(c, c, 0, QQ)):
        with pytest.raises(FaceCountError, match="face guard of 1000 faces"):
            call()


def test_euler_characteristic_agrees(torus, octahedron, projective_plane):
    for c in (torus, octahedron, projective_plane, simplex(2)):
        for f in (QQ, GF2):
            b = betti(c, f)
            alt = sum((-1) ** i * b.at(i) for i in range(-1, c.dim + 1))
            assert alt == reduced_euler_characteristic(c)


def test_relative_betti_examples(triangle):
    rim = from_facets([(0, 1), (0, 2), (1, 2)])
    assert relative_betti(triangle, rim, QQ, 2) == 1
    assert relative_betti(triangle, rim, QQ, 1) == 0
    assert all(relative_betti(triangle, triangle, QQ, i) == 0 for i in range(3))
    with pytest.raises(ValueError):
        relative_betti(rim, triangle, QQ, 1)  # not a subcomplex


def test_relative_betti_facet_contrastar(torus, octahedron):
    for c in (torus, octahedron):
        d = c.dim
        for fc in c.faces(d)[:3]:
            cs = contrastar(c, fc)
            assert relative_betti(c, cs, QQ, d) == 1
            assert all(relative_betti(c, cs, QQ, i) == 0 for i in range(d))


def test_inclusion_zero_examples(torus, triangle):
    rim = from_facets([(0, 1), (0, 2), (1, 2)])
    assert inclusion_induced_is_zero(rim, triangle, 1, QQ)
    # the 3-edge cycle on vertices 0,1,2 is essential on the torus
    cyc = from_facets([(0, 1), (0, 2), (1, 2)])
    assert not inclusion_induced_is_zero(cyc, torus, 1, QQ)
    # a = c: zero maps iff homology vanishes
    assert not inclusion_induced_is_zero(torus, torus, 1, QQ)
    assert inclusion_induced_is_zero(triangle, triangle, 1, QQ)


def test_surjectivity_examples(octahedron):
    # s = t is the identity map
    for face in ([0], [0, 2], [0, 2, 4]):
        assert relative_surjectivity(octahedron, face, face, QQ)
    # vertex inside an incident facet on a sphere
    assert relative_surjectivity(octahedron, [0], [0, 2, 4], QQ)
    with pytest.raises(ValueError):
        relative_surjectivity(octahedron, [], [0], QQ)
    with pytest.raises(ValueError):
        relative_surjectivity(octahedron, [1], [0, 2], QQ)


def test_surjectivity_failure_inside_filled_triangle():
    """The torus-with-filled-triangle complex must fail the projection
    criterion somewhere below the filled triangle.  The failure sits in
    the degenerate pair (nothing, sigma): restricted to nonempty nested
    pairs the criterion is strictly weaker and holds everywhere here."""
    import itertools

    c = example_2_10_iii()
    sigma = next(f for f in c.faces(2) if not torus7().is_face(f))
    assert not top_projection_surjective(c, sigma, QQ)
    assert not top_projection_surjective(c, sigma, GF2)
    nonempty_failures = [
        (s, sigma) for k in (1, 2, 3)
        for s in itertools.combinations(sigma, k)
        if not relative_surjectivity(c, s, sigma, QQ)]
    assert nonempty_failures == []


@given(complexes_up_to_7_vertices())
@example(torus7())
@example(rp2_6())
@example(from_facets([(0, 1, 2), (2, 3)]))  # not pure
@example(from_facets([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]))  # two cycles at 0
@settings(max_examples=100, deadline=None)
def test_projection_cokernel_matches_full_rank(c):
    # every face t and every s ⊆ t, s = 0 (all of H_d) included: the
    # shortcut for a star of one top cycle against the rank of the
    # projections
    for f in FIELDS:
        for d in range(c.dim + 1):
            for tm in c.face_masks(d):
                for sm in (*_submasks(tm), 0):
                    assert (_projection_cokernel(c, f, sm, tm)
                            == projection_cokernel_by_rank(c, f, sm, tm))


def test_top_projection_cases(triangle, torus):
    # the filled triangle's interior point breaks the projection
    assert not top_projection_surjective(triangle, [0, 1, 2], QQ)
    assert all(top_projection_surjective(torus, f, QQ)
               for f in torus.faces(2))
    assert not top_projection_surjective(path(3), [1], QQ)


def test_join_kunneth_small():
    s0 = cross_polytope(1)
    c3 = simplex_boundary(2)
    for a, b in [(s0, s0), (s0, c3), (c3, c3)]:
        j = join(a, b)
        for f in (QQ, GF2):
            ba, bb, bj = betti(a, f), betti(b, f), betti(j, f)
            for i in range(-1, j.dim + 1):
                assert bj.at(i) == sum(
                    ba.at(k) * bb.at(i - k - 1) for k in range(-1, i + 1))


def test_rank_cache_keyed_by_shape():
    letters = from_facets([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c", "e")])
    numbers = from_facets([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3, 5)])
    assert letters != numbers
    shape = (letters.n_vertices, letters._facet_masks)
    assert shape == (numbers.n_vertices, numbers._facet_masks)
    cache = homology._shapes

    def betti_of(c):
        return [betti(c, f) for f in (QQ, GF2)]

    def entries():
        return sum(len(entry) for entry in cache.values())

    first = betti_of(letters)
    assert {k[1:] for k in cache[shape] if k[0].__name__ == "betti"} == {(QQ,), (GF2,)}
    size = entries()
    assert betti_of(numbers) == first
    assert entries() == size
    assert "_faces_by_dim" not in numbers.__dict__  # a hit enumerates no face
    assert betti(numbers, field=QQ) == first[0]


class CountingMasks(tuple):
    """Facet masks that count the times they are hashed."""

    hashes = 0

    def __hash__(self):
        CountingMasks.hashes += 1
        return tuple.__hash__(self)


def test_memo_lookups_hash_no_facet_mask():
    # the shape is hashed once, when built; every lookup after that reads
    # the stored hash
    t = torus7()
    c = complexes._shaped(complexes._Shape((t.n_vertices, CountingMasks(t._facet_masks))))
    assert CountingMasks.hashes == 1 and c == t and hash(c) == hash(t)
    clear_caches()
    for _ in range(2):
        assert [betti(c, f).betti for f in FIELDS] == [(0, 0, 2, 1)] * 3
        assert not is_cohen_macaulay(c, QQ) and is_buchsbaum_star(c, QQ)
    assert CountingMasks.hashes == 1


def test_rank_cache_keeps_no_complex_alive():
    c = from_facets([(0, 1, 2), (2, 3), (3, 4, 5, 6)])
    assert betti_at(c, QQ, 0) == 0
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_star_cycle_cache_keeps_no_complex_alive():
    c = from_facets([(0, 1, 2), (1, 2, 3), (2, 3, 0), (3, 0, 1)])
    assert top_projection_surjective(c, [0], QQ)
    assert relative_surjectivity(c, [0], [0, 1], GF2)
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_star_top_cycles_enumerate_no_face(monkeypatch):
    # the star cells are the top facets through the face, read off the
    # facet list, so no star visits the faces of the whole complex
    calls = []

    def counting_face_masks(c, d):
        calls.append(d)
        return face_masks(c, d)

    face_masks = Complex.face_masks
    n = 12
    theta = from_facets([(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])
    clear_caches()
    monkeypatch.setattr(Complex, "face_masks", counting_face_masks)
    for v in range(n):
        star, kernel, *_ = homology._star_top_cycles(theta, QQ, 1 << v)
        cells = list(_bits(star))  # the star as bits of the facet index
        assert len(cells) == (3 if v in (0, n // 2) else 2)
        assert len(kernel) == len(cells) - 1  # H_1(theta, cost v) = H~_0(lk v)
    assert len(homology._star_top_cycles(theta, GF2, 0)[1]) == 2
    assert calls == []


def test_universal_coefficients_direction():
    """On the corpus manifolds, Betti numbers over GF(2) dominate the
    rational ones coordinatewise (torsion only adds in characteristic p)."""
    from bstar.constructions import corpus
    from bstar.properties import is_homology_manifold

    for name, c in corpus():
        if not c.is_pure:
            continue
        if not is_homology_manifold(c, GF2).manifold:
            continue
        bq = betti(c, QQ)
        b2 = betti(c, GF2)
        for i in range(-1, c.dim + 1):
            assert b2.at(i) >= bq.at(i), (name, i)


def test_pair_subadditivity(torus):
    for fc in torus.faces(2)[:2]:
        cs = contrastar(torus, fc)
        for i in range(0, 3):
            lhs = relative_betti(torus, cs, QQ, i)
            assert lhs <= betti_at(torus, QQ, i) + betti_at(cs, QQ, i - 1)


@st.composite
def small_complexes(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 4))
    facets = [draw(st.permutations(range(n)))[:draw(st.integers(1, 3))]
              for _ in range(k)]
    return from_facets(facets)


@given(small_complexes(), st.sampled_from([QQ, GF2, FieldSpec(3)]))
@settings(max_examples=40, deadline=None)
def test_betti_matches_oracle(c, field):
    expected = betti_numbers([c.face_labels(f) for f in c.facets],
                             field.p)
    assert betti(c, field).betti == expected


@st.composite
def complexes_with_subcomplexes(draw):
    """A complex on at most 7 vertices and a subcomplex of it: a skeleton,
    a deletion, a contrastar or the closure of some facets."""
    n = draw(st.integers(2, 7))
    c = from_facets([draw(st.permutations(range(n)))[:draw(st.integers(1, 4))]
                     for _ in range(draw(st.integers(1, 5)))])
    kind = draw(st.sampled_from(["skeleton", "deletion", "contrastar", "facets"]))
    if kind == "skeleton":
        a = skeleton(c, draw(st.integers(0, c.dim)))
    elif kind == "deletion":
        a = deletion(c, draw(st.sets(st.integers(0, c.n_vertices - 1))))
    elif kind == "contrastar":
        a = contrastar(c, draw(st.sampled_from(
            [f for d in range(c.dim + 1) for f in c.faces(d)])))
    else:
        a = from_facets([c.face_labels(f) for f in draw(
            st.lists(st.sampled_from(c.facets), min_size=1, unique=True))])
    return c, a


@given(complexes_with_subcomplexes(), st.sampled_from([QQ, GF2, FieldSpec(3)]))
@settings(max_examples=150, deadline=None)
def test_pair_maps_match_exact_sequence_oracle(pair, field):
    c, a = pair
    image, relative = pair_homology([a.face_labels(f) for f in a.facets],
                                    [c.face_labels(f) for f in c.facets],
                                    field.p)
    for i in range(-1, c.dim + 2):
        assert inclusion_induced_is_zero(a, c, i, field) == (image.get(i, 0) == 0), i
        assert relative_betti(c, a, field, i) == (relative[i + 1] if i <= c.dim else 0), i


def test_nonbounding_cycle_reduces_every_cycle_in_one_run(monkeypatch):
    handed = []
    reduce = linalg._reduce

    def counting_reduce(columns, *args, **kwargs):
        handed.append((len(columns), kwargs.get("stop")))
        return reduce(columns, *args, **kwargs)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    monkeypatch.setattr(homology, "_reduce", counting_reduce)
    c = cross_polytope(3)
    a = skeleton(c, 1)
    for field in FIELDS:
        handed.clear()
        assert inclusion_induced_is_zero(a, c, 1, field)
        # the kernel of the 12 edges, then the boundaries of the 8
        # triangles with the 7 independent cycles of the edges, to stop at
        # the first cycle that keeps a pivot
        assert handed == [(12, None), (8 + 7, 8)]


def test_a_cycle_that_does_not_bound_ends_the_span_test():
    # K_100 has 4851 independent cycles and no triangle: the first cycle is
    # the witness, and the guard counts 4950 x 1 cells, not 4950 x 4851
    k = from_facets(itertools.combinations(range(100), 2))
    for field in FIELDS:
        assert not inclusion_induced_is_zero(k, k, 1, field)
        witness = first_nonbounding_cycle(k, k, 1, field)
        assert witness is not None and witness[-1][0] == 1


@given(complexes_with_subcomplexes(), st.sampled_from(FIELDS), st.booleans())
@settings(max_examples=150, deadline=None)
def test_nonbounding_cycle_matches_one_span_test_per_cycle(pair, field, within):
    c, a = pair
    inside = _embedded_face_set(a, c)
    around = inside if within else None
    for i in range(0, c.dim + 1):
        assert (_nonbounding_cycle(c, inside, around, i, field)
                == nonbounding_cycle_by_span_tests(c, inside, around, i, field)), i
