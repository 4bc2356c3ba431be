"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Everything is exact arithmetic; there are no tolerances to tune.
"""

import time
from math import comb

from bstar.complexes import contrastar, skeleton
from bstar.constructions import (EarDecomposition, corpus, cross_polytope,
                                 example_2_10_i, example_2_10_iii, product,
                                 simplex_boundary, stacked_sphere, torus7,
                                 verify_ear_decomposition)
from bstar.homology import betti, betti_at
from bstar.linalg import GF2, QQ
from bstar.properties import (is_buchsbaum, is_buchsbaum_star, is_cohen_macaulay,
                              is_doubly_buchsbaum, is_m_buchsbaum_star,
                              is_m_cohen_macaulay)
from bstar.rigidity import graph_of, is_generically_d_rigid, vertex_connectivity
from bstar.theorems import (check_buchsbaum_star_implications, check_cm_collapse,
                            check_constructions, check_counterexample_fidelity,
                            check_ear_verifier, check_flag_bounds,
                            check_lower_bound_theorem, check_m_hierarchy,
                            check_rigidity_connectivity,
                            check_surjectivity_oracle, check_vector_identities)
from bstar.vectors import face_vectors, m_vector_check, stacked_face_counts

FIELDS = (QQ, GF2)


def _report(num, label, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {num}: {label}")
    for d in result.details:
        print(f"     {d}")
    assert result.passed, result.details


def entries():
    return list(corpus())


def test_01_counterexample_fidelity():
    t0 = time.perf_counter()
    ex1 = example_2_10_i()
    for f in FIELDS:
        assert is_buchsbaum(ex1, f)
        assert is_doubly_buchsbaum(ex1, f)
        verdict = is_buchsbaum_star(ex1, f)
        assert not verdict and "vertex p" in verdict.witness
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    ex3 = example_2_10_iii()
    for f in FIELDS:
        assert betti_at(ex3, f, 1) == 1
        assert max(betti_at(contrastar(ex3, fc), f, 1)
                   for fc in ex3.faces(2)) == 2
        assert is_doubly_buchsbaum(ex3, f)
        assert not is_buchsbaum_star(ex3, f)
    second = time.perf_counter() - t0
    assert first < 1.0 and second < 1.0, (first, second)
    result = check_counterexample_fidelity(entries(), FIELDS)
    _report(1, f"counterexamples ({first:.2f}s / {second:.2f}s)", result)


def test_02_orientability_dichotomy():
    t = torus7()
    rp = next(c for n, c in entries() if n == "rp2_6")
    assert is_buchsbaum_star(t, QQ) and is_buchsbaum_star(t, GF2)
    assert is_buchsbaum_star(rp, GF2) and not is_buchsbaum_star(rp, QQ)
    from bstar.theorems import check_orientability_dichotomy

    _report(2, "orientability dichotomy",
            check_orientability_dichotomy(entries(), FIELDS))


def test_03_cm_collapse():
    ents = entries()
    cone_octa = next(c for n, c in ents if n == "cone_octahedron")
    for f in FIELDS:
        assert is_cohen_macaulay(cone_octa, f)
        assert not is_buchsbaum_star(cone_octa, f)
        assert not is_m_cohen_macaulay(cone_octa, f, 2)
    _report(3, "CM collapse (Buchsbaum* = doubly CM on CM complexes)",
            check_cm_collapse(ents, FIELDS, minimum_slice=12))


def test_04_implication_chain():
    _report(4, "Buchsbaum* implications (top Betti, doubly Buchsbaum, links)",
            check_buchsbaum_star_implications(entries(), FIELDS))


def test_05_oracle_equivalence():
    _report(5, "projection decision vs contrastar oracle",
            check_surjectivity_oracle(entries(), FIELDS))


def test_06_vector_arithmetic():
    b = face_vectors(torus7(), QQ)
    assert b.h == (1, 4, 10, -1)
    assert b.h_prime == (1, 4, 10, 1)
    assert b.h_double_prime == (1, 4, 4, 1)
    _report(6, "vector arithmetic and deletion identities",
            check_vector_identities(entries(), FIELDS))


def test_07_flag_bounds():
    for d in (2, 3, 4):
        cp = cross_polytope(d)
        hp = face_vectors(cp, QQ).h_prime
        assert hp == tuple(comb(d, i) for i in range(d + 1))
    _report(7, "flag binomial lower bounds",
            check_flag_bounds(entries(), FIELDS,
                              expect_equality=("cycle4", "cross_polytope3",
                                               "cross_polytope4")))


def test_08_lower_bound_theorem():
    for n in range(4, 11):
        assert stacked_sphere(n, 3).f_vector()[1:] == stacked_face_counts(n, 3)
    _report(8, "stacked sphere lower bounds",
            check_lower_bound_theorem(entries(), FIELDS))


def test_09_rigidity_connectivity():
    g = graph_of(cross_polytope(3))
    assert vertex_connectivity(g) == 4
    assert all(is_generically_d_rigid(g, 3, seed=s) for s in (0, 1, 2))
    gt = graph_of(torus7())
    assert vertex_connectivity(gt) >= 3
    assert all(is_generically_d_rigid(gt, 3, seed=s) for s in (0, 1, 2))
    _report(9, "rigidity and connectivity",
            check_rigidity_connectivity(entries(), FIELDS, seed=0))


def test_10_constructions():
    c3 = simplex_boundary(2)
    p33 = product(c3, c3)
    assert betti(p33, QQ).betti == (0, 0, 2, 1)
    assert is_buchsbaum_star(p33, QQ)
    p3s = product(c3, simplex_boundary(3))
    assert is_buchsbaum_star(p3s, QQ)
    assert m_vector_check(face_vectors(p3s, QQ).g[:3])
    for f in FIELDS:
        assert is_m_buchsbaum_star(skeleton(cross_polytope(4), 2), f, 2)
    _report(10, "products, joins, and skeleta",
            check_constructions(entries(), FIELDS))


def test_11_ear_verifier():
    t = torus7()
    rep = verify_ear_decomposition(t, EarDecomposition((t,)), QQ)
    assert rep.hypotheses_ok and rep.ambient_buchsbaum_star and rep.consistent
    _report(11, "generalized ear-gluing verifier",
            check_ear_verifier(entries(), FIELDS))


def test_12_m_hierarchy():
    c = cross_polytope(3)
    expected = {0: True, 1: True, 2: False}
    for f in FIELDS:
        for m, want in expected.items():
            assert is_m_buchsbaum_star(c, f, m) is want
            assert is_m_cohen_macaulay(c, f, m + 1) is want
    _report(12, "m-Buchsbaum* vs (m+1)-CM hierarchy",
            check_m_hierarchy(entries(), FIELDS))
