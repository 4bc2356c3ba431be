import json

import pytest

from bstar import complexes, constructions
from bstar.complexes import FaceCountError, from_facets, set_max_faces, to_json
from bstar.constructions import (EarDecomposition, corpus, cross_polytope, cycle,
                                 example_2_10_iii, export_corpus, named, path,
                                 product, simplex, simplex_boundary, stacked_sphere,
                                 torus7, verify_ear_decomposition)
from bstar.homology import betti, betti_at
from bstar.linalg import GF2, QQ, FieldSpec
from bstar.properties import is_buchsbaum_star, is_doubly_buchsbaum
from oracles import betti_numbers


def test_named_lookup():
    assert named("torus7").f_vector() == (1, 7, 21, 14)
    assert named("cross_polytope:3").f_vector() == (1, 6, 12, 8)
    assert named("simplex_boundary:3").f_vector() == (1, 4, 6, 4)
    assert named("cycle4").f_vector() == (1, 4, 4)
    assert named("cycle:5").f_vector() == (1, 5, 5)
    assert named("path3").f_vector() == (1, 3, 2)
    assert named("s0").f_vector() == (1, 2)
    assert named("rp2_6").f_vector() == (1, 6, 15, 10)
    assert named("bowtie").f_vector() == (1, 5, 6, 2)
    with pytest.raises(ValueError):
        named("klein_bottle")


@pytest.mark.parametrize("build, arg", [
    (simplex, 4), (simplex_boundary, 4), (cross_polytope, 4), (cycle, 9), (path, 7),
    (lambda n: stacked_sphere(n, 3), 9), (lambda n: stacked_sphere(n, 4), 12),
], ids=["simplex", "simplex_boundary", "cross_polytope", "cycle", "path", "stacked_3", "stacked_4"])
def test_sized_families_guard_their_exact_face_count(monkeypatch, build, arg):
    # the count, empty face included, is checked before the facets are
    # listed: a guard of exactly that many faces builds, one less refuses
    monkeypatch.setattr(complexes, "_max_faces", complexes._max_faces)
    total = sum(build(arg).f_vector())
    set_max_faces(total)
    assert sum(build(arg).f_vector()) == total
    set_max_faces(total - 1)
    monkeypatch.setattr(constructions, "from_facets", None)  # nothing is built
    with pytest.raises(FaceCountError, match=f"face guard of {total - 1} faces"):
        build(arg)


def test_cross_polytope_counts():
    assert cross_polytope(3).f_vector() == (1, 6, 12, 8)
    assert cross_polytope(4).f_vector() == (1, 8, 24, 32, 16)
    assert cross_polytope(1).f_vector() == (1, 2)


def test_torus_is_two_neighborly(torus):
    assert torus.f_vector() == (1, 7, 21, 14)
    assert betti(torus, QQ).betti == (0, 0, 2, 1)
    # every vertex link is a 6-cycle
    from bstar.complexes import link

    for v in range(7):
        assert link(torus, [v]).f_vector() == (1, 6, 6)


def test_counterexample_with_filled_triangle():
    from bstar.complexes import contrastar

    c = example_2_10_iii()
    assert c.f_vector() == (1, 7, 21, 15)
    for f in (QQ, GF2, FieldSpec(3), FieldSpec(5)):
        assert betti_at(c, f, 1) == 1
    # the contrastar of the filled triangle is the bare torus
    costs = [betti_at(contrastar(c, fc), QQ, 1) for fc in c.faces(2)]
    assert max(costs) == 2
    assert is_doubly_buchsbaum(c, QQ) and is_doubly_buchsbaum(c, GF2)
    assert not is_buchsbaum_star(c, QQ)


def test_stacked_sphere_construction():
    s = stacked_sphere(7, 3)
    assert s.f_vector() == (1, 7, 15, 10)
    assert betti(s, QQ).betti == (0, 0, 0, 1)
    assert stacked_sphere(4, 3).facets == simplex_boundary(3).facets
    with pytest.raises(ValueError):
        stacked_sphere(3, 3)


def test_product_edge_edge():
    edge = from_facets([(0, 1)])
    square = product(edge, edge)
    assert square.f_vector() == (1, 4, 5, 2)
    assert betti(square, QQ).betti == (0, 0, 0, 0)


def test_product_torus():
    c3 = simplex_boundary(2)
    t = product(c3, c3)
    assert len(t.facets) == 18
    assert t.f_vector() == (1, 9, 27, 18)
    assert betti(t, QQ).betti == (0, 0, 2, 1)
    assert betti(t, GF2).betti == (0, 0, 2, 1)
    # oracle cross-check on the facet list
    assert betti_numbers([t.face_labels(f) for f in t.facets]) == (0, 0, 2, 1)


def test_product_sphere_circle():
    p = product(simplex_boundary(2), simplex_boundary(3))
    assert p.f_vector() == (1, 12, 48, 72, 36)
    assert betti(p, QQ).betti == (0, 0, 1, 1, 1)


def test_product_euler_multiplicative():
    def chi(c):
        return sum((-1) ** i * n for i, n in enumerate(c.f_vector()[1:]))

    cases = [(simplex_boundary(2), simplex_boundary(2)),
             (simplex_boundary(2), path(3)),
             (path(3), path(3))]
    for a, b in cases:
        assert chi(product(a, b)) == chi(a) * chi(b)


def test_ear_verifier_single_piece(torus):
    rep = verify_ear_decomposition(torus, EarDecomposition((torus,)), QQ)
    assert rep.union_ok and rep.base_ok and rep.hypotheses_ok
    assert rep.ambient_buchsbaum_star is True and rep.consistent


def test_ear_verifier_detects_broken_attachment():
    ambient = example_2_10_iii()
    base = torus7()
    sigma = next(f for f in ambient.faces(2) if not base.is_face(f))
    disc = from_facets([tuple(ambient.labels[v] for v in sigma)])
    rep = verify_ear_decomposition(ambient, EarDecomposition((base, disc)), QQ)
    assert rep.union_ok and rep.base_ok
    ear = rep.ears[0]
    assert ear["manifold_with_boundary"]
    assert ear["boundary_ok"]
    assert ear["boundary_matches_intersection"]
    assert not ear["attachment_null_homologous_top"]
    assert ear["attachment_null_homologous_below"]
    # the rim of the filled triangle {0,1,2}, the first cycle of the
    # disc's boundary that does not bound in the torus
    assert ear["attachment_null_homologous_top_witness"] == [
        "face {0,1}", "face {0,2}", "face {1,2}"]
    assert not rep.hypotheses_ok
    assert rep.ambient_buchsbaum_star is None and rep.consistent


def test_ear_verifier_membrane_passes():
    memb = next(c for n, c in corpus() if n == "octahedron_with_membrane")
    base = from_facets([tuple(memb.labels[v] for v in fc) for fc in memb.facets
                        if all(memb.labels[v] != "z" for v in fc)])
    disc = from_facets([tuple(memb.labels[v] for v in fc) for fc in memb.facets
                        if any(memb.labels[v] == "z" for v in fc)])
    rep = verify_ear_decomposition(memb, EarDecomposition((base, disc)), QQ)
    assert rep.hypotheses_ok
    assert rep.ambient_buchsbaum_star is True and rep.consistent
    assert is_buchsbaum_star(memb, GF2)


def test_ear_verifier_boundary_outside_earlier_pieces():
    octa = cross_polytope(3)
    disc = from_facets([(0, "y", "z"), (2, "y", "z"), (0, 2, "z")])
    ambient = from_facets([octa.face_labels(f) for f in octa.facets]
                          + [disc.face_labels(f) for f in disc.facets])
    rep = verify_ear_decomposition(ambient, EarDecomposition((octa, disc)), QQ)
    ear = rep.ears[0]
    assert ear["manifold_with_boundary"] and ear["boundary_ok"]
    assert not ear["boundary_matches_intersection"]
    for key in ("attachment_null_homologous_top", "attachment_null_homologous_below"):
        assert ear[key] is False
        assert ear[key + "_witness"] == ["boundary not inside earlier pieces"]
    assert not rep.hypotheses_ok


def test_ear_verifier_rejects_non_subcomplex(torus):
    alien = from_facets([("x", "y")])
    with pytest.raises(ValueError):
        verify_ear_decomposition(torus, EarDecomposition((alien,)), QQ)


def test_corpus_stable_and_exportable(tmp_path):
    names = [n for n, _ in corpus()]
    assert len(names) == len(set(names))
    assert "torus7" in names and "cone_octahedron" in names
    written = export_corpus(tmp_path)
    assert all("corpus-v1" in p for p in written)
    sample = json.loads((tmp_path / "corpus-v1" / "torus7.json").read_text())
    assert from_facets(sample["facets"]).f_vector() == (1, 7, 21, 14)


def test_corpus_roundtrip_through_json():
    for name, c in corpus():
        back = from_facets(json.loads(to_json(c))["facets"])
        assert back.f_vector() == c.f_vector(), name
