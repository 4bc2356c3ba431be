import gc
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (buchsbaum_star_by_contrastars, link_homology_violation,
                     link_walk_by_every_link, m_fold_by_rebuild, manifold_report_by_recursion)
from strategies import EDGE_CASES, complexes_up_to_7_vertices, subdivision_chains

from bstar import clear_caches, homology, properties
from bstar.complexes import Complex, _link, cone, deletion, from_facets, skeleton
from bstar.constructions import (bowtie, corpus, cross_polytope, cycle, example_2_10_i,
                                 example_2_10_iii, rp2_6, simplex, simplex_boundary,
                                 stacked_sphere, torus7)
from bstar.homology import betti
from bstar.linalg import GF2, QQ, FieldSpec
from bstar.properties import (ManifoldReport, is_buchsbaum, is_buchsbaum_star,
                              is_cohen_macaulay, is_doubly_buchsbaum,
                              is_gorenstein_star, is_homology_manifold,
                              is_m_buchsbaum, is_m_buchsbaum_star,
                              is_m_cohen_macaulay, property_report)

TWO_EDGES = from_facets([(0, 1), (2, 3)])


def test_cohen_macaulay(sphere2, torus):
    assert is_cohen_macaulay(sphere2, QQ)
    v = is_cohen_macaulay(TWO_EDGES, QQ)
    assert not v and "degree 0" in v.witness
    assert not is_cohen_macaulay(torus, QQ)
    assert not is_cohen_macaulay(torus, GF2)


def test_cm_depends_on_field(projective_plane):
    assert is_cohen_macaulay(projective_plane, QQ)
    assert not is_cohen_macaulay(projective_plane, GF2)


def test_doubly_cohen_macaulay(octahedron):
    assert is_m_cohen_macaulay(octahedron, QQ, 2)
    assert not is_m_cohen_macaulay(cone(octahedron), QQ, 2)
    for d in (2, 3, 4):
        assert is_m_cohen_macaulay(simplex_boundary(d), QQ, 2)
    assert is_m_cohen_macaulay(octahedron, QQ, 1)
    with pytest.raises(ValueError):
        is_m_cohen_macaulay(octahedron, QQ, 0)


def test_buchsbaum(torus):
    assert is_buchsbaum(torus, QQ)
    assert is_buchsbaum(example_2_10_i(), QQ)
    v = is_buchsbaum(bowtie(), QQ)
    assert not v and "link of vertex p" in v.witness
    assert not is_buchsbaum(from_facets([(0, 1, 2), (2, 3)]), QQ).ok


def test_doubly_buchsbaum(torus, projective_plane):
    assert is_doubly_buchsbaum(example_2_10_i(), QQ)
    assert is_doubly_buchsbaum(projective_plane, QQ)
    assert is_doubly_buchsbaum(projective_plane, GF2)
    assert not is_doubly_buchsbaum(bowtie(), QQ)
    assert is_doubly_buchsbaum(example_2_10_iii(), QQ)
    assert is_doubly_buchsbaum(example_2_10_iii(), GF2)


def test_buchsbaum_star(octahedron, projective_plane):
    v = is_buchsbaum_star(example_2_10_i(), QQ)
    assert not v and v.witness.startswith("vertex p")
    assert is_buchsbaum_star(octahedron, QQ)
    assert is_buchsbaum_star(projective_plane, GF2)
    # a non-orientable closed manifold is still swept, so its witness names a face
    v = is_buchsbaum_star(projective_plane, QQ)
    assert (v.ok, v.witness) == (False, "vertex 1: contrastar Betti 1 != 0 in degree 1")
    assert not is_buchsbaum_star(example_2_10_iii(), QQ)
    assert not is_buchsbaum_star(example_2_10_iii(), GF2)


def test_buchsbaum_star_zero_dimensional():
    assert not is_buchsbaum_star(from_facets([[0]]), QQ)
    assert is_buchsbaum_star(from_facets([[0], [1]]), QQ)
    assert is_buchsbaum_star(from_facets([[0], [1], [2]]), QQ)


def test_buchsbaum_star_single_edge():
    # an edge is Buchsbaum but its facet contrastar splits it
    assert is_buchsbaum(from_facets([(0, 1)]), QQ)
    assert not is_buchsbaum_star(from_facets([(0, 1)]), QQ)
    assert is_buchsbaum_star(simplex_boundary(2), QQ)


@given(complexes_up_to_7_vertices())
@settings(max_examples=150, deadline=None)
def test_buchsbaum_star_matches_contrastar_oracle(c):
    for f in (QQ, GF2, FieldSpec(3)):
        v = is_buchsbaum_star(c, f)
        assert (v.ok, v.witness) == buchsbaum_star_by_contrastars(c, f)


@given(complexes_up_to_7_vertices())
@settings(max_examples=150, deadline=None)
def test_m_fold_deciders_match_full_rebuild_sweep(c):
    for f in (QQ, GF2, FieldSpec(3)):
        for fast, decider in ((is_m_cohen_macaulay, is_cohen_macaulay),
                              (is_m_buchsbaum, is_buchsbaum)):
            assert fast(c, f, 2) == properties._deletion_sweep(c, f, 2, decider)


@given(complexes_up_to_7_vertices())
@example(skeleton(simplex(5), 2))  # 3-fold CM in dimension 2
@example(cross_polytope(3))  # doubly CM, not 3-fold Buchsbaum
@settings(max_examples=150, deadline=None)
def test_m3_deciders_match_deletions_rebuilt_from_facets(c):
    for f in (QQ, GF2, FieldSpec(3)):
        for m in (3, 4):
            assert is_m_cohen_macaulay(c, f, m) == m_fold_by_rebuild(c, f, m, cm=True)
            assert is_m_buchsbaum(c, f, m) == m_fold_by_rebuild(c, f, m, cm=False)


def test_property_report_builds_no_deletion(monkeypatch):
    # m = 2 is decided by top-cycle projections, not by deleting vertices
    calls = []

    def counting_deletion(c, vertices):
        calls.append(vertices)
        return deletion(c, vertices)

    clear_caches()
    monkeypatch.setattr(properties, "deletion", counting_deletion)
    rep = property_report(cycle(64), QQ)
    assert rep.verdicts["doubly_cohen_macaulay"] and rep.verdicts["doubly_buchsbaum"]
    assert calls == []


@pytest.mark.parametrize("decider", [is_m_cohen_macaulay, is_m_buchsbaum])
def test_m3_deciders_build_only_one_vertex_deletions(monkeypatch, decider):
    # 3-fold P is the 2-fold sweep of doubly P: c itself and its n
    # one-vertex deletions, each decided by projections; G(20) is the
    # 1-skeleton of a stacked 2-sphere, a 3-connected planar graph
    calls = []

    def counting_deletion(c, vertices):
        calls.append(vertices)
        return deletion(c, vertices)

    clear_caches()
    monkeypatch.setattr(properties, "deletion", counting_deletion)
    assert decider(skeleton(stacked_sphere(20, 3), 1), QQ, 3)
    assert sorted(calls) == [(v,) for v in range(20)]


def test_property_report_projects_once_per_face(monkeypatch):
    # doubly CM and doubly Buchsbaum read the Buchsbaum* verdict instead of
    # repeating its sweep; a 2-skeleton is Buchsbaum* but no manifold, so
    # the sweep runs once, one absolute projection per nonempty face
    absolute, pairs = [], []

    def counting_cokernel(c, f, sm, tm):
        (pairs if sm else absolute).append(tm)
        return projection_cokernel(c, f, sm, tm)

    projection_cokernel = properties._projection_cokernel
    clear_caches()
    monkeypatch.setattr(properties, "_projection_cokernel", counting_cokernel)
    c = skeleton(cross_polytope(4), 2)
    rep = property_report(c, QQ)
    assert rep.verdicts["buchsbaum*"] and rep.verdicts["doubly_cohen_macaulay"]
    assert rep.verdicts["doubly_buchsbaum"] and not rep.verdicts["homology_manifold"]
    assert sorted(absolute) == sorted(c.mask(t) for d in range(c.dim + 1) for t in c.faces(d))
    assert len(absolute) == 8 + 24 + 32
    assert pairs == []


@pytest.mark.parametrize("c", [cross_polytope(3), torus7()], ids=["octahedron", "torus7"])
def test_closed_orientable_manifold_makes_no_projection(monkeypatch, c):
    # Buchsbaum* is read off the dichotomy, doubly Buchsbaum off Buchsbaum*
    calls = []

    def counting_cokernel(*args):
        calls.append(args)
        return projection_cokernel(*args)

    projection_cokernel = properties._projection_cokernel
    clear_caches()
    monkeypatch.setattr(properties, "_projection_cokernel", counting_cokernel)
    rep = property_report(c, QQ)
    assert rep.verdicts["buchsbaum*"] and rep.verdicts["doubly_buchsbaum"]
    assert rep.verdicts["orientable_manifold"]
    assert calls == []


# a 2-sphere with a triangle glued along an edge: CM with the homology of a
# sphere, but the link of that edge is three points, so not Gorenstein*
SPHERE_WITH_FIN = from_facets([*simplex_boundary(3).facets, (0, 1, 4)])

# disconnected closed manifolds: orientable over a field exactly when every
# component is, so the top Betti number must count the components
TORUS_AND_RP2 = from_facets([*torus7().facets, *(tuple(v + 7 for v in t) for t in rp2_6().facets)])
TWO_CYCLES = from_facets([*cycle(3).facets, *(tuple(v + 3 for v in t) for t in cycle(4).facets)])


def assert_link_deciders_match_reference(c):
    for f in (QQ, GF2, FieldSpec(3)):
        cm = is_cohen_macaulay(c, f)
        expected = link_homology_violation(c, f, True)
        assert (cm.ok, cm.witness) == (expected is None, expected)
        b = is_buchsbaum(c, f)
        expected = "not pure" if not c.is_pure else link_homology_violation(c, f, False)
        assert (b.ok, b.witness) == (expected is None, expected)
        assert is_gorenstein_star(c, f) == (link_homology_violation(c, f, True, top=1) is None)


@given(complexes_up_to_7_vertices())
@settings(max_examples=150, deadline=None)
def test_link_deciders_match_per_decider_walk(c):
    assert_link_deciders_match_reference(c)


@pytest.mark.parametrize("name", [*EDGE_CASES, "sphere_with_fin"])
def test_link_deciders_match_per_decider_walk_on_edge_cases(name):
    assert_link_deciders_match_reference(EDGE_CASES.get(name, SPHERE_WITH_FIN))


def test_sphere_with_fin_is_cm_but_not_gorenstein_star():
    assert is_cohen_macaulay(SPHERE_WITH_FIN, QQ)
    assert betti(SPHERE_WITH_FIN, QQ).betti == (0, 0, 0, 1)
    assert not is_gorenstein_star(SPHERE_WITH_FIN, QQ)
    rep = is_homology_manifold(SPHERE_WITH_FIN, QQ)
    assert not rep.manifold and "neither" in rep.witness


@given(st.one_of(complexes_up_to_7_vertices(), st.sampled_from(list(EDGE_CASES.values()))))
@example(SPHERE_WITH_FIN)  # the walk passes, but one edge link has top Betti 2
@settings(max_examples=150, deadline=None)
def test_gorenstein_star_is_a_closed_manifold_with_sphere_homology(c):
    # Gorenstein* reads the link walk, not the manifold report
    for f in (QQ, GF2, FieldSpec(3)):
        sphere = betti(c, f).betti == (0,) * (c.dim + 1) + (1,)
        assert is_gorenstein_star(c, f) == (sphere and is_homology_manifold(c, f).closed)


@given(st.one_of(complexes_up_to_7_vertices(), st.sampled_from(list(EDGE_CASES.values()))))
@example(cross_polytope(3))
@example(torus7())
@example(rp2_6())  # orientable over GF(2) only
@example(TORUS_AND_RP2)  # one component is not orientable over Q or GF(3)
@example(TWO_CYCLES)
@example(dict(corpus())["two_spheres"])
@example(EDGE_CASES["simplex0"])  # one point: a closed manifold, not Buchsbaum*
@example(EDGE_CASES["two_points"])
@example(EDGE_CASES["only_empty_face"])
@settings(max_examples=150, deadline=None)
def test_manifold_shortcuts_match_the_projection_sweeps(c):
    for f in (QQ, GF2, FieldSpec(3)):
        swept = bool(is_buchsbaum(c, f)) and properties._projection_violation(c, f) is None
        assert is_buchsbaum_star(c, f).ok == swept
        assert is_doubly_buchsbaum(c, f) == properties._pair_projections(c, f)


def test_property_report_builds_one_manifold_report(monkeypatch):
    built = []

    def counting_report(*args):
        built.append(args)
        return ManifoldReport(*args)

    clear_caches()
    monkeypatch.setattr(properties, "ManifoldReport", counting_report)
    rep = property_report(cross_polytope(3), QQ)
    assert rep.verdicts["gorenstein*"] and rep.verdicts["homology_manifold"]
    assert len(built) == 1


def test_property_report_builds_each_link_once(monkeypatch):
    # CM, Buchsbaum, Gorenstein* and the manifold report read one link walk
    # per field, and the walks of all fields share the links they build;
    # the links of facets and ridges are read off the facet list
    calls = []

    def counting_link(c, s):
        calls.append(s)
        return _link(c, s)

    clear_caches()
    monkeypatch.setattr(properties, "_link", counting_link)
    c = cross_polytope(4)
    for f in (QQ, GF2):
        rep = property_report(c, f)
        assert rep.verdicts["gorenstein*"] and rep.verdicts["homology_manifold"]
    assert sorted(calls) == sorted(c.mask(t) for d in range(c.dim - 1) for t in c.faces(d))
    assert len(calls) == 8 + 24


def test_link_and_star_visit_only_the_facets_through_the_lowest_vertex():
    # `_link`, `has_mask` and `_star_top_cycles` read the facet index at the
    # lowest vertex of the face, and never scan the facet list
    visited = []

    class Through(list):
        def __iter__(self):
            for g in list.__iter__(self):
                visited.append(g)
                yield g

    class Unscanned(tuple):
        def __iter__(self):
            raise AssertionError("the facet list was scanned")

    c = stacked_sphere(30, 3)
    faces = [m for d in range(c.dim + 1) for m in c.face_masks(d)]
    through = c._through
    c.__dict__["_through"] = {bit: Through(gs) for bit, gs in through.items()}
    c._facet_masks = Unscanned(c._facet_masks)
    clear_caches()
    try:
        for face in faces:
            star = through[face & -face]
            for visit in (_link, Complex.has_mask,
                          lambda k, s: homology._star_top_cycles(k, QQ, s)):
                visited.clear()
                visit(c, face)
                assert visited == star[:len(visited)]
                assert len(visited) == len(star) or visit is Complex.has_mask
    finally:
        clear_caches()


GOLDEN_REPORTS = Path(__file__).parent / "data" / "corpus_reports.json"


def test_corpus_reports_match_golden_file():
    """Verdicts and witnesses of `property_report` on every corpus entry,
    over q, gf:2 and gf:3, are those recorded in the golden file.  After a
    change that is meant to alter them, regenerate it from the repo root:

        PYTHONPATH=src python -c "import json; from bstar.constructions import corpus; from bstar.linalg import FieldSpec; from bstar.properties import property_report; print(json.dumps({n: [property_report(c, FieldSpec.parse(f)).to_jsonable() for f in ('q', 'gf:2', 'gf:3')] for n, c in corpus()}, indent=2))" > tests/data/corpus_reports.json
    """
    got = {name: [property_report(c, FieldSpec.parse(f)).to_jsonable()
                  for f in ("q", "gf:2", "gf:3")]
           for name, c in corpus()}
    assert got == json.loads(GOLDEN_REPORTS.read_text(encoding="utf-8"))


# Every verdict but doubly Buchsbaum is a property of the realization:
# CM and Buchsbaum (Munkres 1984), doubly CM (Walker 1981), Buchsbaum*
# (defined from the realization), and those read off local homology.
# Doubly Buchsbaum is left out, as no source in hand proves it topological.
TOPOLOGICAL = ("buchsbaum", "buchsbaum*", "cohen_macaulay", "doubly_cohen_macaulay",
               "gorenstein*", "homology_manifold", "orientable_manifold")
SUBDIVIDED = [name for name, c in corpus() if c.dim >= 1]


@pytest.mark.parametrize("name", SUBDIVIDED)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_stellar_subdivisions_keep_betti_tables_and_verdicts(name, data):
    """A subdivided corpus complex has the Betti tables of the original and
    the verdicts recorded for it in the golden file, over q, gf:2 and gf:3.
    The golden file, not a fresh report, is the reference, so a decider
    that is wrong on the original and its subdivisions alike still fails."""
    original = dict(corpus())[name]
    c = data.draw(subdivision_chains(original))
    golden = json.loads(GOLDEN_REPORTS.read_text(encoding="utf-8"))[name]
    for f, recorded in zip((QQ, GF2, FieldSpec(3)), golden):
        assert betti(c, f).betti == betti(original, f).betti, f
        verdicts = property_report(c, f).verdicts
        assert ({k: verdicts[k] for k in TOPOLOGICAL}
                == {k: recorded["verdicts"][k] for k in TOPOLOGICAL}), f


@pytest.mark.parametrize("name", EDGE_CASES)
def test_doubly_deciders_on_edge_cases(name):
    # one point fails only by the ridge condition: its deletion {∅} drops
    # the dimension, while it is Buchsbaum with no pair of faces to project
    c = EDGE_CASES[name]
    for f in (QQ, GF2, FieldSpec(3)):
        for fast, decider in ((is_m_cohen_macaulay, is_cohen_macaulay),
                              (is_m_buchsbaum, is_buchsbaum)):
            assert fast(c, f, 2) == properties._deletion_sweep(c, f, 2, decider)


def test_clear_caches_frees_decided_complexes():
    c = from_facets([(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    assert is_cohen_macaulay(c, QQ)
    ref = weakref.ref(c)
    del c
    clear_caches()
    gc.collect()
    assert ref() is None


def test_clear_caches_covers_every_memo():
    # every memo is an entry of the one table keyed by shape; no lru_cache
    # is kept beside it
    for module in (homology, properties):
        assert not [name for name, fn in vars(module).items() if hasattr(fn, "cache_clear")]
    clear_caches()
    property_report(example_2_10_i(), QQ)
    memos = {key[0].__name__ for entry in homology._shapes.values() for key in entry}
    assert memos == {"betti", "_star_top_cycles", "_link_walk", "_link_shapes",
                     "_projection_violation"}
    clear_caches()
    assert homology._shapes == {}


def test_relabelled_copy_reads_every_verdict_from_the_shape_memo(monkeypatch):
    # verdicts depend on the shape only: a relabelled copy builds no link,
    # its witnesses name its own labels, and no memo keeps a complex alive
    calls = []

    def counting_link(c, s):
        calls.append(s)
        return _link(c, s)

    clear_caches()
    lower = from_facets([("p", "a", "b"), ("p", "c", "d")])
    first = property_report(lower, QQ)
    ref = weakref.ref(lower)
    del lower
    gc.collect()
    assert ref() is None
    monkeypatch.setattr(properties, "_link", counting_link)
    rep = property_report(from_facets([("P", "A", "B"), ("P", "C", "D")]), QQ)
    assert calls == []
    assert rep.verdicts == first.verdicts
    assert set(rep.witnesses) == {"cohen_macaulay", "buchsbaum", "buchsbaum*", "homology_manifold"}
    assert all("vertex P" in w and "vertex p" not in w for w in rep.witnesses.values())


def test_m_buchsbaum_star(octahedron):
    assert is_m_buchsbaum_star(torus7(), QQ, 0)
    assert is_m_buchsbaum_star(octahedron, QQ, 1)
    assert not is_m_buchsbaum_star(octahedron, QQ, 2)
    with pytest.raises(ValueError):
        is_m_buchsbaum_star(octahedron, QQ, -1)


def test_m_buchsbaum(octahedron, torus):
    assert is_m_buchsbaum(octahedron, QQ, 2)  # Buchsbaum* implies this
    assert is_m_buchsbaum(torus, QQ, 2)
    star = from_facets([("p", "a"), ("p", "b"), ("p", "c"), ("p", "d")])
    assert not is_m_buchsbaum(star, QQ, 2)


def test_gorenstein_star(octahedron, torus):
    for d in (1, 2, 3, 4):
        assert is_gorenstein_star(simplex_boundary(d), QQ)
    assert is_gorenstein_star(octahedron, QQ)
    assert not is_gorenstein_star(torus, QQ)
    assert not is_gorenstein_star(simplex(2), QQ)


def test_homology_manifold(torus, projective_plane, triangle):
    rep = is_homology_manifold(torus, QQ)
    assert rep.manifold and rep.closed and rep.orientable

    rep_q = is_homology_manifold(projective_plane, QQ)
    rep_2 = is_homology_manifold(projective_plane, GF2)
    assert rep_q.manifold and rep_2.manifold
    assert rep_2.orientable and not rep_q.orientable

    rep_t = is_homology_manifold(triangle, QQ)
    assert rep_t.manifold and not rep_t.closed and rep_t.orientable
    assert rep_t.boundary is not None
    assert rep_t.boundary.f_vector() == (1, 3, 3)

    assert not is_homology_manifold(bowtie(), QQ).manifold
    # a non-pure complex gets a verdict, as from is_buchsbaum
    assert is_homology_manifold(from_facets([(0, 1, 2), (2, 3)]), QQ) == \
        ManifoldReport(False, False, None, False, "not pure")


def test_homology_manifold_ball(octahedron):
    ball = cone(octahedron)
    rep = is_homology_manifold(ball, QQ)
    assert rep.manifold and not rep.closed and rep.orientable
    assert rep.boundary.f_vector() == octahedron.f_vector()


@st.composite
def pure_complexes_up_to_7_vertices(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(2, min(n, 4)))
    facets = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=10))
    c = from_facets([p[:k] for p in facets])
    # cones are balls when c is a sphere or a ball; deleting a vertex of a
    # closed manifold leaves a manifold with boundary
    if draw(st.booleans()):
        c = cone(c)
    if draw(st.booleans()):
        rest = deletion(c, [draw(st.integers(0, c.n_vertices - 1))])
        if rest.is_pure and rest.dim == c.dim:
            c = rest
    return c


@given(pure_complexes_up_to_7_vertices())
@settings(max_examples=200, deadline=None)
def test_homology_manifold_matches_recursive_oracle(c):
    def summary(rep):
        return (rep.manifold, rep.closed, rep.orientable,
                None if rep.boundary is None else rep.boundary._facet_masks)

    for f in (QQ, GF2, FieldSpec(3)):
        assert summary(is_homology_manifold(c, f)) == summary(manifold_report_by_recursion(c, f))


@given(st.one_of(complexes_up_to_7_vertices(), pure_complexes_up_to_7_vertices(),
                 st.sampled_from(list(EDGE_CASES.values()))))
@example(SPHERE_WITH_FIN)  # not pure: a ridge-dimensional face fails
@example(cone(rp2_6()))  # the apex link, RP², fails over GF(2) only
@example(cross_polytope(4))
@settings(max_examples=150, deadline=None)
def test_link_walk_matches_the_walk_that_builds_every_link(c):
    for f in (QQ, GF2, FieldSpec(3)):
        assert properties._link_walk(c, f) == link_walk_by_every_link(c, f)


def test_property_report_counterexample():
    rep = property_report(example_2_10_i(), QQ)
    assert rep.verdicts["buchsbaum"] is True
    assert rep.verdicts["doubly_buchsbaum"] is True
    assert rep.verdicts["buchsbaum*"] is False
    assert rep.verdicts["cohen_macaulay"] is True
    assert rep.verdicts["doubly_cohen_macaulay"] is False
    assert "vertex p" in rep.witnesses["buchsbaum*"]


def test_property_report_octahedron(octahedron):
    rep = property_report(octahedron, QQ)
    for key in ("cohen_macaulay", "doubly_cohen_macaulay", "buchsbaum",
                "buchsbaum*", "gorenstein*", "homology_manifold",
                "orientable_manifold"):
        assert rep.verdicts[key] is True


def test_property_report_cone(octahedron):
    rep = property_report(cone(octahedron), QQ)
    assert rep.verdicts["cohen_macaulay"] is True
    assert rep.verdicts["buchsbaum*"] is False
    assert rep.verdicts["doubly_cohen_macaulay"] is False


def test_subset_guard(octahedron):
    from bstar import properties

    properties.set_max_subsets(3)
    try:
        with pytest.raises(RuntimeError, match="guard"):
            is_m_cohen_macaulay(octahedron, FieldSpec(13), 3)
    finally:
        properties.set_max_subsets(properties.DEFAULT_MAX_SUBSETS)


def theta(n: int, first: int = 0) -> list[tuple[int, int]]:
    """The edges of an n-cycle with one chord from its first vertex to the
    opposite one: the vertices are 0, then first + 1, ..., first + n − 1."""
    vs = [0, *range(first + 1, first + n)]
    return [(vs[i], vs[(i + 1) % n]) for i in range(n)] + [(0, vs[n // 2])]


def test_a_two_field_report_counts_the_ridges_of_its_complex_once(monkeypatch):
    # the link walk over each field and the ridge test of doubly CM over
    # each field all read the one count kept on the complex
    counted = []
    ridge_counts = Complex.__dict__["_ridge_counts"]
    count = ridge_counts.func

    def counting(c):
        counted.append(c)
        return count(c)

    monkeypatch.setattr(ridge_counts, "func", counting)
    clear_caches()
    c = from_facets(theta(20))
    for f in (QQ, GF2):
        assert property_report(c, f).verdicts["cohen_macaulay"]  # so doubly CM reads the count
    assert counted == [c]


def test_large_graphs_get_the_paper_verdicts():
    # a graph is Buchsbaum* exactly when every component is 2-connected:
    # theta(4000) is, two theta(2000) glued at vertex 0 are not
    glued = {"cohen_macaulay": True, "buchsbaum": True, "buchsbaum*": False,
             "doubly_cohen_macaulay": False, "doubly_buchsbaum": True,
             "gorenstein*": False, "homology_manifold": False, "orientable_manifold": False}
    for facets, verdicts in ((theta(4000), {**glued, "buchsbaum*": True,
                                            "doubly_cohen_macaulay": True}),
                             (theta(2000) + theta(2000, 1999), glued)):
        c = from_facets(facets)
        clear_caches()
        for f in (QQ, GF2):
            report = property_report(c, f)
            assert report.verdicts == verdicts
            if not verdicts["buchsbaum*"]:
                assert report.witnesses["buchsbaum*"] == (
                    "vertex 0: contrastar Betti 1 != 0 in degree 0")
