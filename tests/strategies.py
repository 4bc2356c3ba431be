"""Hypothesis strategies and edge cases shared by the test modules."""

from hypothesis import strategies as st

from bstar.complexes import Complex, cone, deletion, from_facets, skeleton
from bstar.constructions import bowtie, corpus, cycle, simplex

EDGE_CASES = {
    **{f"simplex{d}": simplex(d) for d in range(4)},  # simplex0 is one point
    "two_points": from_facets([[0], [1]]),
    "cone_over_cycle5": cone(cycle(5)),  # a 2-ball with an interior vertex
    "bowtie": bowtie(),
    "two_spheres": dict(corpus())["two_spheres"],
    "star_graph": from_facets([("p", "a"), ("p", "b"), ("p", "c"), ("p", "d")]),
    "only_empty_face": deletion(simplex(0), [0]),  # the complex {∅}
    "triangle_with_whisker": from_facets([(0, 1, 2), (2, 3)]),  # not pure
    "edge_and_point": from_facets([(0, 1), (2,)]),  # not pure
}


@st.composite
def complexes_up_to_7_vertices(draw):
    n = draw(st.integers(2, 7))
    facets = [draw(st.permutations(range(n)))[:draw(st.integers(1, min(n, 4)))]
              for _ in range(draw(st.integers(1, 7)))]
    c = from_facets(facets)
    # deletions and skeletons give non-pure and non-Buchsbaum cases, and
    # Buchsbaum graphs that fail only at a vertex
    gone = draw(st.sets(st.integers(0, c.n_vertices - 1), max_size=1))
    if gone:
        c = deletion(c, sorted(gone))
    return skeleton(c, draw(st.integers(1, 3)))


def stellar_subdivision(c: Complex, face: int) -> Complex:
    """Stellar subdivision of c at the face with mask `face`: a new vertex
    w, and each facet G ⊇ face replaced by (G − u) ∪ {w} for every vertex
    u of the face (Lickorish 1999, "Simplicial moves on complexes and
    manifolds").  The realization is the same, so every topological
    invariant is."""
    w = 1 << c.n_vertices
    corners = [1 << v for v in range(c.n_vertices) if face >> v & 1]
    masks = []
    for g in c._facet_masks:
        if g & face == face:
            masks += [g & ~u | w for u in corners]
        else:
            masks.append(g)
    return Complex(masks, c.n_vertices + 1, c.labels + (("w", c.n_vertices),))


@st.composite
def subdivision_chains(draw, c: Complex):
    """c after one to three stellar subdivisions at faces of dimension ≥ 1."""
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, c.dim))
        c = stellar_subdivision(c, draw(st.sampled_from(c.face_masks(d))))
    return c
