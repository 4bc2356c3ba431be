"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from bstar.complexes import deletion, from_facets, skeleton


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
