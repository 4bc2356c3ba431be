"""Named complexes, sphere/product constructions, and the gluing verifier.

The built-in corpus collects the complexes every verification battery and
test in this package runs against: simplex boundaries, cross-polytopes,
cycles and paths, the 7-vertex torus, the 6-vertex projective plane, the
counterexample complexes, cones, stacked spheres and staircase products.
The sized families check their face count, the empty face included,
against the face guard before they build anything.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from .complexes import (Complex, _guard_faces, _tuple_of, cone, from_facets, get_max_faces,
                        to_json)
from .homology import _embedded_face_set, _nonbounding_cycle, betti_at, inclusion_induced_is_zero
from .linalg import QQ, FieldSpec

__all__ = [
    "named",
    "corpus",
    "simplex",
    "simplex_boundary",
    "cross_polytope",
    "cycle",
    "path",
    "torus7",
    "rp2_6",
    "bowtie",
    "stacked_sphere",
    "product",
    "EarDecomposition",
    "EarReport",
    "verify_ear_decomposition",
    "export_corpus",
]


def _guard_power(base: int, exponent: int, less: int = 0) -> None:
    """The face guard on base**exponent - less faces, for base ≥ 2 and
    less ≤ 1.  Past the guard's bit length the count is over the guard
    anyway, so the exponent is capped there and no huge power is taken."""
    _guard_faces(base ** min(exponent, get_max_faces().bit_length() + 1) - less)


def simplex(d: int) -> Complex:
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    _guard_power(2, d + 1)
    return from_facets([range(d + 1)])


def simplex_boundary(d: int) -> Complex:
    """Boundary of the d-simplex: a (d-1)-sphere on d+1 vertices."""
    if d < 1:
        raise ValueError("dimension must be positive")
    _guard_power(2, d + 1, 1)
    return from_facets(itertools.combinations(range(d + 1), d))


def cross_polytope(d: int) -> Complex:
    """Boundary of the d-cross-polytope: 2^d facets on 2d vertices, with
    antipodal pairs (2i, 2i+1)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    _guard_power(3, d)
    pairs = [(2 * i, 2 * i + 1) for i in range(d)]
    return from_facets(itertools.product(*pairs))


def cycle(n: int) -> Complex:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    _guard_faces(2 * n + 1)
    return from_facets([(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Complex:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    _guard_faces(2 * n)
    return from_facets([(i, i + 1) for i in range(n - 1)])


@lru_cache(maxsize=None)
def torus7() -> Complex:
    """The 7-vertex 2-torus: cyclic orbits of the triangles {0,1,3} and
    {0,2,3} modulo 7."""
    facets = [tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
              for i in range(7) for (a, b, c) in ((0, 1, 3), (0, 2, 3))]
    return from_facets(facets)


@lru_cache(maxsize=None)
def rp2_6() -> Complex:
    """The 6-vertex real projective plane (antipodal icosahedron quotient)."""
    return from_facets([
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ])


def bowtie() -> Complex:
    """Two filled triangles sharing a single vertex."""
    return from_facets([("p", "a", "b"), ("p", "c", "d")])


@lru_cache(maxsize=None)
def example_2_10_i() -> Complex:
    """Two hollow triangles sharing the vertex p, drawn as a graph."""
    return from_facets([("p", "a"), ("p", "b"), ("a", "b"),
                        ("p", "c"), ("p", "d"), ("c", "d")])


@lru_cache(maxsize=None)
def example_2_10_iii() -> Complex:
    """The 7-vertex torus with one filled triangle whose boundary cycle is
    homologically essential.

    The triangle is the lexicographically first vertex triple that is not
    already a face and whose boundary cycle class is nonzero over the
    rationals and GF(2), GF(3), GF(5); the choice is verified at build
    time by rank computations.
    """
    base = torus7()
    fields = [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)]
    for tri in itertools.combinations(range(7), 3):
        if base.is_face(tri):
            continue
        boundary = from_facets([(tri[0], tri[1]), (tri[0], tri[2]),
                                (tri[1], tri[2])])
        if not any(inclusion_induced_is_zero(boundary, base, 1, f) for f in fields):
            return from_facets(list(base.facets) + [tri])
    raise RuntimeError("no essential triangle found")  # unreachable on the torus


def stacked_sphere(n: int, d: int) -> Complex:
    """Stacked (d-1)-sphere on n vertices: repeated stellar subdivision of
    the lexicographically first facet of the simplex boundary."""
    if d < 2 or n < d + 1:
        raise ValueError("need d >= 2 and n >= d+1")
    from .vectors import stacked_face_counts

    _guard_power(2, d + 1, 1)  # the simplex boundary first: a huge d takes no binomials
    _guard_faces(1 + sum(stacked_face_counts(n, d)))
    facets = [tuple(fc) for fc in simplex_boundary(d).facets]
    vertex = d + 1
    while vertex < n:
        facets.sort()
        target = facets.pop(0)
        for drop in target:
            facets.append(tuple(sorted([v for v in target if v != drop] + [vertex])))
        vertex += 1
    return from_facets(facets)


def product(g: Complex, d: Complex) -> Complex:
    """Staircase triangulation of the product of two complexes.

    Vertices are index pairs (i, j); the facets over a facet pair are the
    maximal monotone lattice paths through its grid, so gluing along
    shared sub-grids is consistent because every path respects the same
    global vertex orders.
    """
    facets = []
    for fa in g.facets:
        for fb in d.facets:
            la, lb = len(fa), len(fb)
            for advance in itertools.combinations(range(la + lb - 2), la - 1):
                pathv = [(fa[0], fb[0])]
                i = j = 0
                for step in range(la + lb - 2):
                    if step in advance:
                        i += 1
                    else:
                        j += 1
                    pathv.append((fa[i], fb[j]))
                facets.append(tuple(pathv))
    return from_facets(facets)


_NAMED_PLAIN = {
    "torus7": torus7,
    "rp2_6": rp2_6,
    "bowtie": bowtie,
    "example_2_10_i": example_2_10_i,
    "example_2_10_iii": example_2_10_iii,
    "s0": lambda: cross_polytope(1),
}

_NAMED_PARAM = {
    "simplex": simplex,
    "simplex_boundary": simplex_boundary,
    "cross_polytope": cross_polytope,
    "cycle": cycle,
    "path": path,
}


def named(name: str) -> Complex:
    """Look up a named complex: e.g. torus7, rp2_6, cross_polytope:3,
    simplex_boundary:2, cycle4, path3, s0, example_2_10_i."""
    key = name.strip()
    if key in _NAMED_PLAIN:
        return _NAMED_PLAIN[key]()
    if ":" in key:
        base, _, arg = key.partition(":")
        if base in _NAMED_PARAM:
            return _NAMED_PARAM[base](int(arg))
    m = re.fullmatch(r"(cycle|path)(\d+)", key)
    if m:
        return _NAMED_PARAM[m.group(1)](int(m.group(2)))
    raise ValueError(f"unknown name: {name!r}")


@lru_cache(maxsize=None)
def corpus() -> tuple[tuple[str, Complex], ...]:
    """The built-in verification corpus, in stable order."""
    octa = cross_polytope(3)
    entries = [
        ("s0", cross_polytope(1)),
        ("cycle3", simplex_boundary(2)),
        ("cycle4", cross_polytope(2)),
        ("cycle5", cycle(5)),
        ("cycle6", cycle(6)),
        ("path3", path(3)),
        ("simplex2", simplex(2)),
        ("simplex_boundary3", simplex_boundary(3)),
        ("simplex_boundary4", simplex_boundary(4)),
        ("cross_polytope3", octa),
        ("cross_polytope4", cross_polytope(4)),
        ("stacked_6_3", stacked_sphere(6, 3)),
        ("stacked_7_3", stacked_sphere(7, 3)),
        ("cone_octahedron", cone(octa)),
        ("torus7", torus7()),
        ("rp2_6", rp2_6()),
        ("example_2_10_i", example_2_10_i()),
        ("example_2_10_iii", example_2_10_iii()),
        ("bowtie", bowtie()),
        ("two_spheres", from_facets(
            [(a, b) for a, b in itertools.combinations("xyz", 2)]
            + [(a, b) for a, b in itertools.combinations("uvw", 2)])),
        ("product_cycle3_cycle3", product(simplex_boundary(2), simplex_boundary(2))),
        ("product_cycle3_sb3", product(simplex_boundary(2), simplex_boundary(3))),
        ("octahedron_with_membrane", _octahedron_with_membrane()),
    ]
    return tuple(entries)


def _octahedron_with_membrane() -> Complex:
    """An octahedron plus a disc coned over one equatorial square: the
    smallest interesting instance for the gluing verifier."""
    octa = cross_polytope(3)
    disc = [(2, 4, "z"), (3, 4, "z"), (3, 5, "z"), (2, 5, "z")]
    return from_facets(list(octa.facets) + disc)


# -- generalized ear decompositions ------------------------------------


class EarDecomposition:
    """Ordered pieces, each a subcomplex of a common ambient complex
    (matched by vertex labels)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[Complex, ...]):
        self.pieces = pieces


class EarReport:
    """`verify_ear_decomposition`'s findings, hypothesis by hypothesis."""

    def __init__(self, union_ok: bool, base_ok: bool, base_detail: str, ears: list[dict],
                 hypotheses_ok: bool, ambient_buchsbaum_star: bool | None, consistent: bool):
        self.union_ok = union_ok
        self.base_ok = base_ok
        self.base_detail = base_detail
        self.ears = ears
        self.hypotheses_ok = hypotheses_ok
        self.ambient_buchsbaum_star = ambient_buchsbaum_star
        self.consistent = consistent

    def to_jsonable(self) -> dict:
        return {
            "union_ok": self.union_ok,
            "base_ok": self.base_ok,
            "base_detail": self.base_detail,
            "ears": self.ears,
            "hypotheses_ok": self.hypotheses_ok,
            "ambient_buchsbaum_star": self.ambient_buchsbaum_star,
            "consistent": self.consistent,
        }


def verify_ear_decomposition(ambient: Complex, decomposition, field: FieldSpec) -> EarReport:
    """Mechanically check the gluing hypotheses: the first piece is a
    closed orientable homology manifold of ambient dimension, every later
    piece is a connected orientable homology manifold with boundary whose
    boundary is a closed connected orientable manifold, equals the
    intersection with the earlier pieces, and attaches null-homologously
    in the two degrees below the ambient dimension.

    When all hypotheses hold the ambient complex must be Buchsbaum*; the
    report records that verdict and flags disagreement as an internal
    inconsistency (`consistent=False`), which callers should treat as a
    bug, never as a mathematical discovery.
    """
    from .properties import is_buchsbaum_star, is_homology_manifold

    pieces = tuple(decomposition.pieces) if isinstance(decomposition, EarDecomposition) \
        else tuple(decomposition)
    if not pieces:
        raise ValueError("need at least one piece")
    d = ambient.dim
    piece_faces = [_embedded_face_set(p, ambient) for p in pieces]
    union_ok = set().union(*piece_faces) == _embedded_face_set(ambient, ambient)

    base = pieces[0]
    base_rep = is_homology_manifold(base, field)
    if not base_rep.manifold or not base_rep.closed:
        base_ok, base_detail = False, "not a closed homology manifold"
    elif base.dim != d:
        base_ok, base_detail = False, "wrong dimension"
    elif not base_rep.orientable:
        base_ok, base_detail = False, "not orientable"
    else:
        base_ok, base_detail = True, "closed orientable homology manifold"

    ears = []
    hypotheses_ok = union_ok and base_ok
    prior_faces = set(piece_faces[0])
    for k, (piece, faces) in enumerate(zip(pieces[1:], piece_faces[1:]), start=2):
        ear: dict = {"piece": k}
        rep = is_homology_manifold(piece, field)
        # connected: reduced beta_0 is 0, over every field
        ear["manifold_with_boundary"] = bool(
            rep.manifold and not rep.closed and rep.orientable
            and betti_at(piece, field, 0) == 0 and piece.dim == d)
        boundary = rep.boundary  # None unless a manifold with boundary
        if boundary is not None:
            brep = is_homology_manifold(boundary, field)
            ear["boundary_ok"] = bool(
                brep.manifold and brep.closed and brep.orientable
                and betti_at(boundary, field, 0) == 0 and boundary.dim == d - 1)
        else:
            ear["boundary_ok"] = False
        bfaces = None if boundary is None else _embedded_face_set(boundary, ambient)
        ear["boundary_matches_intersection"] = bfaces == faces & prior_faces

        # zero-map conditions live one and two degrees below the ambient
        # (top) dimension d, i.e. in dim-1 and dim-2 of the complex
        for off, keyname in ((1, "attachment_null_homologous_top"),
                             (2, "attachment_null_homologous_below")):
            if bfaces is None:
                ear[keyname] = False
                continue
            if not bfaces <= prior_faces:
                ear[keyname] = False
                ear[keyname + "_witness"] = ["boundary not inside earlier pieces"]
                continue
            witness = _nonbounding_cycle(ambient, bfaces, prior_faces, d - off, field)
            ear[keyname] = witness is None
            if witness is not None:
                ear[keyname + "_witness"] = [ambient.describe_face(_tuple_of(m))
                                             for _, m in witness]
        hypotheses_ok = hypotheses_ok and all(
            ear[k2] for k2 in ("manifold_with_boundary", "boundary_ok",
                               "boundary_matches_intersection",
                               "attachment_null_homologous_top",
                               "attachment_null_homologous_below"))
        ears.append(ear)
        prior_faces |= faces

    bstar = None
    consistent = True
    if hypotheses_ok:
        bstar = bool(is_buchsbaum_star(ambient, field))
        consistent = bstar
    return EarReport(union_ok, base_ok, base_detail, ears, hypotheses_ok,
                     bstar, consistent)


def export_corpus(directory) -> list[str]:
    """Write every corpus complex as canonical JSON under a versioned
    subdirectory; returns the written paths."""
    import os

    target = os.path.join(str(directory), "corpus-v1")
    os.makedirs(target, exist_ok=True)
    written = []
    for name, c in corpus():
        p = os.path.join(target, f"{name}.json")
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(to_json(c) + "\n")
        written.append(p)
    return written
