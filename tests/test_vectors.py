from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bstar import vectors
from bstar.complexes import from_facets
from bstar.constructions import (cross_polytope, example_2_10_i, simplex,
                                 simplex_boundary, stacked_sphere, torus7)
from bstar.homology import betti
from bstar.linalg import GF2, QQ
from bstar.vectors import (conjecture_probe, deletion_identity_check,
                           face_vectors, flag_bound_check, h_vector, lbt_check,
                           m_vector_check, macaulay_bound, monotonicity_check,
                           stacked_face_counts, _deletion_identities)
from bstar.theorems import check_vector_identities


def test_octahedron_vectors(octahedron):
    b = face_vectors(octahedron, QQ)
    assert b.f == (1, 6, 12, 8)
    assert b.h == (1, 3, 3, 1)
    assert b.h_prime == b.h == b.h_double_prime[:3] + (1,)
    assert b.g == (1, 2)


def test_torus_vectors(torus):
    b = face_vectors(torus, QQ)
    assert b.f == (1, 7, 21, 14)
    assert b.h == (1, 4, 10, -1)
    assert b.h_prime == (1, 4, 10, 1)
    assert b.h_double_prime == (1, 4, 4, 1)
    assert b.g == (1, 3)
    assert b.g_double_prime == (1, 3)


def test_triangle_vectors(triangle):
    assert face_vectors(triangle, QQ).h == (1, 0, 0, 0)


def test_sb3_vectors(sphere2):
    assert face_vectors(sphere2, QQ).h == (1, 1, 1, 1)


def test_cp4_vectors():
    b = face_vectors(cross_polytope(4), QQ)
    assert b.f == (1, 8, 24, 32, 16)
    assert b.h == tuple(comb(4, i) for i in range(5))


def test_h_round_trip(torus, octahedron):
    for c in (torus, octahedron, simplex(2), example_2_10_i()):
        d = c.dim + 1
        h = h_vector(c)
        f = c.f_vector()
        for j in range(d + 1):
            assert sum(comb(d - i, d - j) * h[i] for i in range(j + 1)) == \
                (f[j] if j < len(f) else 0)


def test_h_prime_top_is_top_betti(torus, projective_plane):
    for c in (torus, projective_plane, simplex(2), example_2_10_i()):
        for fld in (QQ, GF2):
            b = face_vectors(c, fld)
            assert b.h_prime[-1] == betti(c, fld).top()
            assert b.h_double_prime[0] == 1


def test_deletion_identities(octahedron, torus):
    assert deletion_identity_check(octahedron, QQ)["h_identity"] == "pass"
    assert deletion_identity_check(octahedron, QQ)["h_prime_identity"] == "pass"
    rep = deletion_identity_check(torus, QQ)
    assert rep["h_identity"] == "pass" and rep["h_prime_identity"] == "pass"
    rep1 = deletion_identity_check(example_2_10_i(), QQ)
    assert rep1["h_identity"] == "pass"
    assert rep1["h_prime_identity"].startswith("skipped")


def test_flag_bounds(octahedron, torus):
    rep = flag_bound_check(octahedron, QQ)
    assert rep["flag"] and rep["h_prime_binomial_bound"] == "pass"
    assert rep["h_double_binomial_bound"] == "pass"
    b = face_vectors(octahedron, QQ)
    assert all(b.h_prime[i] == comb(3, i) for i in range(4))

    square = cross_polytope(2)
    assert face_vectors(square, QQ).h_prime == (1, 2, 1)
    assert flag_bound_check(square, QQ)["h_prime_binomial_bound"] == "pass"

    rept = flag_bound_check(torus, QQ)
    assert not rept["flag"]
    assert rept["h_prime_binomial_bound"].startswith("skipped")
    # Betti-weighted bound: h'_2 = 10 >= 3 * beta_1 = 6
    assert rept["h_prime_betti_bound"] == "pass"


def test_stacked_counts():
    assert stacked_face_counts(6, 3) == (6, 12, 8)
    assert stacked_face_counts(7, 3) == (7, 15, 10)
    for n in range(4, 11):
        assert stacked_sphere(n, 3).f_vector()[1:] == stacked_face_counts(n, 3)
    for n in range(5, 11):
        assert stacked_sphere(n, 4).f_vector()[1:] == stacked_face_counts(n, 4)
    assert stacked_sphere(4, 3).facets == simplex_boundary(3).facets


def test_lbt(octahedron, torus):
    rep = lbt_check(octahedron, QQ)
    assert rep["bounds"] == "pass"
    assert rep["stacked_counts"] == [6, 12, 8]
    assert lbt_check(torus, QQ)["bounds"] == "pass"
    assert torus.f_vector()[1:] >= (7, 15, 10)
    with pytest.raises(ValueError):
        lbt_check(cross_polytope(2), QQ)


def test_macaulay_bound_values():
    assert macaulay_bound(3, 1) == 6
    assert macaulay_bound(2, 1) == 3
    assert macaulay_bound(10, 2) == 20
    assert macaulay_bound(4, 2) == 5  # 4 = C(3,2)+C(1,1) -> C(4,3)+C(2,2)


def test_m_vector_examples():
    assert m_vector_check((1, 3, 3))
    assert not m_vector_check((1, 2, 4))
    assert not m_vector_check((1, 0, 5))
    assert m_vector_check((1,))
    assert m_vector_check((1, 7, 10))
    assert not m_vector_check((2, 1))
    assert not m_vector_check((1, -1))
    assert m_vector_check((1, 4, 10, 20))  # polynomial ring growth


def test_monotonicity(octahedron):
    rep = monotonicity_check(octahedron, octahedron, QQ)
    assert rep["hypothesis"] == "ok" and rep["inequality"] == "pass"

    equator = from_facets([(2, 4), (3, 4), (3, 5), (2, 5)])
    rep2 = monotonicity_check(octahedron, equator, QQ)
    assert rep2["hypothesis"] == "ok" and rep2["inequality"] == "pass"

    # equal dimensions: the vertex condition holds automatically
    facet = from_facets([(0, 2, 4)])
    rep3 = monotonicity_check(octahedron, facet, QQ)
    assert rep3["hypothesis"] == "ok" and rep3["inequality"] == "pass"

    # the boundary of a facet spans a face of the ambient complex
    rim = from_facets([(0, 2), (0, 4), (2, 4)])
    rep4 = monotonicity_check(octahedron, rim, QQ)
    assert rep4["hypothesis"].startswith("fails")
    assert rep4["inequality"] is None


def test_conjecture_probe(torus):
    rep = conjecture_probe(torus, QQ)
    assert rep["status"] == "probed"
    assert rep["h_double_symmetric"] is True
    assert rep["note"].startswith("empirical")

    rep4 = conjecture_probe(cross_polytope(4), QQ)
    assert rep4["g2_m_vector"] is True
    assert rep4["g_m_vector"] is True

    skipped = conjecture_probe(example_2_10_i(), QQ)
    assert skipped["status"].startswith("skipped")


def test_ambient_h_vector_padding():
    edge = from_facets([(0, 1)])
    assert h_vector(edge) == (1, 0, 0)
    assert h_vector(edge, 3) == (1, -1, 0, 0)
    with pytest.raises(ValueError):
        h_vector(edge, 1)


@st.composite
def random_small(draw):
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, 4))
    return from_facets([draw(st.permutations(range(n)))[:draw(st.integers(1, 4))]
                        for _ in range(k)])


@given(random_small())
@settings(max_examples=40, deadline=None)
def test_h_identity_always(c):
    # the vertex split of the h-vector holds with no hypotheses
    assert deletion_identity_check(c, QQ)["h_identity"] == "pass"


@given(random_small())
@settings(max_examples=40, deadline=None)
def test_h_top_euler(c):
    d = c.dim + 1
    f = c.f_vector()
    chi = sum((-1) ** i * f[i + 1] for i in range(-1, c.dim + 1))
    assert h_vector(c)[d] == (-1) ** (d - 1) * chi


def test_vector_identities_build_each_deletion_once_for_every_field(monkeypatch):
    # only the Betti table of a deletion depends on the field, so the
    # second field builds no deletion and no link
    built = []

    def counting(build):
        def counted(c, face):
            built.append((build.__name__, list(face)))
            return build(c, face)
        return counted

    for name in ("deletion", "link"):
        monkeypatch.setattr(vectors, name, counting(getattr(vectors, name)))
    entries = [("octahedron", cross_polytope(3)), ("torus", torus7())]
    assert check_vector_identities(entries, (QQ,)).passed
    one_field = list(built)
    built.clear()
    assert check_vector_identities(entries, (QQ, GF2)).passed
    assert built == one_field
    assert len(built) == 2 * (6 + 7)  # a deletion and a link per vertex


def test_deletion_identity_check_is_the_same_over_each_field_alone_and_together():
    for c in (cross_polytope(3), torus7(), example_2_10_i(), stacked_sphere(8, 3)):
        fields = (QQ, GF2)
        assert _deletion_identities(c, fields) == [deletion_identity_check(c, f) for f in fields]
