"""Deciders for the simplicial complex property hierarchy, each one of
the paper's criteria on the parts of `homology`.

Cohen-Macaulay: no link (the whole complex included) has reduced
homology below its top dimension.  Buchsbaum: pure, and the same for the
links of nonempty faces.  Homology manifold: pure (a non-pure complex is
no manifold, witness "not pure"), with links passing it with top Betti 1
(sphere) or 0 (ball), the ball-link faces forming a subcomplex (the
boundary).  Gorenstein*: every link, the whole complex included, is a
homology sphere of its own dimension, that is, CM with top Betti 1
throughout; CM implies pure, and in dimension 0 β = (0, 1) is two points,
while {∅} passes.  All four read `_link_walk`, one per shape and field,
which stops at the first failing link, where a walk per decider stops,
so witnesses stay.  In a pure complex of dimension d the walk reads the
links of facets and ridges off the facet list: a facet's link is {∅},
with β = (1), and a ridge in k facets has k points as its link, with
β = (0, k − 1).  The cofacet counts of the ridges, made once per complex
(`Complex._ridge_counts`, which `_ridges_shared` reads too), give them
all, and neither can fail, so only faces of dimension ≤ d − 2 build a link; a
graph builds none.  A non-pure complex builds the link of every face.
Each link is built once per shape for every field: the walk over one
field puts the links' shapes (`Complex._shape`, with no label and their
hash) in `_link_shapes`, in walk order, and the walks over other fields
rank those shapes without building a link.

Buchsbaum*: removing the open star of any nonempty face F keeps the
reduced Betti number one below the top dimension d.  For a Buchsbaum
complex H_{d-1}(Δ, cost F) ≅ H̃(lk F) vanishes, and the exact sequence
of the pair (Δ, cost F) gives

    β_{d-1}(cost F) = β_{d-1}(Δ) + dim coker(H_d(Δ) -> H_d(Δ, cost F)),

so the top cycles of Δ must project onto the top cycles of the star of
F: one global top-cycle basis plus a small kernel per star.

On a closed homology manifold of dimension d ≥ 1 the paper answers
without the sweep: it is Buchsbaum* exactly when it is orientable over
the field.  There H_d(Δ, cost F) ≅ H̃_{d-|F|}(lk F) is one-dimensional,
and each component, being strongly connected (its ridges lie in two
facets and its links of dimension ≥ 1 are connected), has top Betti
number at most 1, with a cycle that is nonzero on every facet when it is
1.  So H_d(Δ) projects onto every star exactly when β_d(Δ) is the number
of components, β_0(Δ) + 1.  `is_buchsbaum_star` reads both facts off the
link walk (`_links_are_spheres`) and the Betti table, and sweeps only
the other complexes; a non-orientable manifold is swept, so its witness
names a face.  Dimension 0 is left to the sweep, and must be: there
every complex is a closed manifold, but one point is not Buchsbaum* (its
contrastar {∅} has β_{-1} = 1), while two or more points are.  The count
never holds there, as β_0 is the number of points less one, so the test
needs no dimension guard.  `verify`'s
`check_orientability_dichotomy` compares the manifold report with the
sweep called directly, and `check_surjectivity_oracle`, which ranks the
contrastar Betti numbers, checks every Buchsbaum* verdict independently.

All deciders are pure.  The link walk, its link shapes and the projection
sweep are memoised by shape, as `homology` results are (`clear_caches`
empties the memo), so the deciders add the labels of faces.
They walk faces as masks (`_faces_ascending`) and make a vertex tuple only
to name a face in a witness.

`property_report` is a table of the deciders: it runs six of them in a
fixed order, each finding what those before it memoised, keeps each
verdict and any witness, adds the manifold report, and raises
`ConsistencyError` when one of five implications of the hierarchy
fails.  It reads no clock, so a report is a function of the complex and
the field alone.

The m-fold properties ask the same of every deletion of fewer than m
vertices.  Deleting commutes with taking links, lk_{Δ−v}(F) = lk_Δ(F) − v,
which is lk_Δ(F) itself unless F ∪ {v} is a face.

For m = 2 no deletion is built.  Let L be CM of dimension e and v a
vertex of L.  By excision H_i(L, L − v) ≅ H̃_{i−1}(lk_L v), which
vanishes for i < e, so the exact sequence of the pair leaves
H̃_i(L − v) = 0 for i < e − 1 and

    H̃_{e-1}(L − v) ≅ coker(H_e(L) -> H_e(L, L − v)).

Applied to L = Δ and to every L = lk_Δ(G), with H_e(lk G) ≅
H_d(Δ, cost G) and H_e(lk G, lk G − v) ≅ H_d(Δ, cost (G ∪ v)):
Δ is doubly Buchsbaum exactly when it is Buchsbaum, every ridge lies in
at least two facets (each Δ − v stays pure of dimension d), and
H_d(Δ, cost G) projects onto H_d(Δ, cost (G ∪ v)) for every nonempty
face G and vertex v of lk G.  Δ is doubly CM exactly when it is CM, the
same ridge condition holds, and H_d(Δ) projects onto every
H_d(Δ, cost F): that is the Buchsbaum* test (CM is pure and Buchsbaum),
so doubly CM reads the Buchsbaum* verdict and doubly CM ⇒ Buchsbaum*
holds by construction (`verify` checks it against the sweep below).
Buchsbaum* implies doubly Buchsbaum (the paper), so doubly Buchsbaum
holds when the Buchsbaum* verdict does and runs the pair projections
(`_pair_projections`) only when it fails; `property_report`'s check of
buchsbaum* ⇒ doubly_buchsbaum also holds by construction, and `verify`'s
`check_buchsbaum_star_implications` asks the pair projections instead.

For m ≥ 3 the sweep stops one level down.  Take a nonempty set U of
fewer than m vertices and u ∈ U: Δ − U = (Δ − (U − u)) − u, and U − u
has fewer than m − 1 vertices.  So every deletion of fewer than m
vertices keeps dim Δ and has P exactly when every deletion of fewer
than m − 1 vertices keeps dim Δ and is doubly P.  `_deletion_sweep`
builds those Σ_{k<m−1} C(n, k) deletions, c itself included without a
build, and decides each by the m = 2 criterion above
(`_doubly_cohen_macaulay`, `_doubly_buchsbaum`).  m-fold Buchsbaum* has
no such criterion: its sweep builds every deletion of fewer than m
vertices and decides each one in full.
"""

from __future__ import annotations

import itertools
from math import comb

from .complexes import Complex, _bits, _link, _rebuild, _shaped, _tuple_of, deletion
from .homology import (_by_shape, _kept_betti, _projection_cokernel, _shapes,
                       betti, betti_at)
from .linalg import FieldSpec

__all__ = [
    "SubsetGuardError",
    "ConsistencyError",
    "Verdict",
    "ManifoldReport",
    "PropertyReport",
    "is_cohen_macaulay",
    "is_m_cohen_macaulay",
    "is_buchsbaum",
    "is_doubly_buchsbaum",
    "is_m_buchsbaum",
    "is_buchsbaum_star",
    "is_m_buchsbaum_star",
    "is_gorenstein_star",
    "is_homology_manifold",
    "property_report",
    "clear_caches",
]

DEFAULT_MAX_SUBSETS = 10**6
_max_subsets = DEFAULT_MAX_SUBSETS


class SubsetGuardError(RuntimeError):
    """Raised when a deletion sweep would visit more vertex subsets than
    the guard allows."""


class ConsistencyError(Exception):
    """Raised when verdicts break an implication of the theory: a bug in
    the library, never a property of the input."""


def set_max_subsets(n: int) -> None:
    global _max_subsets
    _max_subsets = int(n)


class Verdict:
    """A decider's answer, true or false, and why it fails."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: str | None = None):
        self.ok = ok
        self.witness = witness

    def __repr__(self) -> str:
        return f"Verdict(ok={self.ok!r}, witness={self.witness!r})"

    def __bool__(self) -> bool:
        return self.ok


def _faces_ascending(c: Complex):
    """The masks of the nonempty faces of c by dimension, each dimension in
    `Complex.face_masks` order (that of the sorted vertex tuples)."""
    for d in range(0, c.dim + 1):
        yield from c.face_masks(d)


def _link_violation(b: tuple[int, ...], top: int | None) -> str | None:
    """Why a link with reduced Betti vector b fails the link test: nonzero
    reduced homology below its top dimension, or, unless `top` is None, a
    top reduced Betti number other than `top`."""
    for i, x in enumerate(b[:-1], start=-1):
        if x:
            return f"has nonzero reduced homology in degree {i}"
    if top is not None and b[-1] != top:
        return f"has top reduced Betti number {b[-1]}, expected {top}"
    return None


@_by_shape
def _link_shapes(c: Complex) -> tuple[list[tuple], dict[tuple, tuple]]:
    """The shape (`Complex._shape`) of each link the walks have passed, in
    walk order, and every distinct shape, held once: every field's walk
    visits the faces in one order from the start, so entry i is the same
    face's link each time, and each link of a shape is built once."""
    return [], {}


@_by_shape
def _link_walk(c: Complex, f: FieldSpec):
    """Take the link of each nonempty face once, in `_faces_ascending`
    order, up to the first with reduced homology below its top dimension.
    A pure complex reads the links of its facets and ridges off the facet
    list, and only the first walk over a shape builds a link (module
    docstring).

    Returns the top reduced Betti number of every link passed, in that
    order, then the failing face's mask and why it fails, or None and None."""
    d, pure = c.dim, c.is_pure
    shapes, distinct = _link_shapes(c)
    tops = []
    walk = (face for e in range(0, d - 1 if pure else d + 1) for face in c.face_masks(e))
    for i, face in enumerate(walk):
        if i < len(shapes):
            lk = _shaped(shapes[i])
        else:
            lk = _link(c, face)
            shapes.append(distinct.setdefault(lk._shape, lk._shape))
        b = betti(lk, f).betti
        why = _link_violation(b, None)
        if why:
            return tuple(tops), face, why
        tops.append(b[-1])
    if pure and d >= 1:
        tops += [k - 1 for k in c._ridge_counts]
    if pure and d >= 0:
        tops += [1] * len(c.face_masks(d))
    return tuple(tops), None, None


def _links_are_spheres(c: Complex, f: FieldSpec) -> bool:
    """Every nonempty-face link is a homology sphere of its own dimension:
    the link walk passes and every link it passed has top Betti number 1.
    For a pure c of dimension ≥ 1 that makes c a closed homology manifold."""
    tops, _, why = _link_walk(c, f)
    return why is None and tops.count(1) == len(tops)


def is_cohen_macaulay(c: Complex, f: FieldSpec) -> Verdict:
    """Link homology vanishes below top dimension, for every face."""
    why = _link_violation(betti(c, f).betti, None)
    if why:
        return Verdict(False, f"the whole complex {why}")
    _, face, why = _link_walk(c, f)
    return Verdict(why is None, why and f"link of {c.describe_face(_tuple_of(face))} {why}")


def _guard_subsets(c: Complex, m: int) -> None:
    """Refuse an m-fold decision on c that stands for more vertex subsets
    (deletions of fewer than m vertices, c itself included) than allowed."""
    total = sum(comb(c.n_vertices, k) for k in range(m))
    if total > _max_subsets:
        raise SubsetGuardError(
            f"deletion sweep needs {total} subsets, above the guard of {_max_subsets}"
        )


def _deletion_sweep(c: Complex, f: FieldSpec, m: int, decider) -> bool:
    """Every deletion of fewer than m vertices, c itself included, keeps
    the dimension of c and passes `decider`, the smallest first; guarded
    by the subset count.  c itself is decided as it is, so only nonempty
    subsets build a deletion.  `_m_fold` runs it with m − 1 and a doubly
    criterion, `is_m_buchsbaum_star` with m and Buchsbaum*, and the
    `verify` battery with m = 2 and the plain deciders, as the check on
    the projection criterion."""
    _guard_subsets(c, m)
    for k in range(m):
        for subset in itertools.combinations(range(c.n_vertices), k):
            rest = deletion(c, subset) if subset else c
            if rest.dim != c.dim or not decider(rest, f):
                return False
    return True


def _ridges_shared(c: Complex) -> bool:
    """Every ridge of the pure complex c lies in at least two facets, so
    that every one-vertex deletion stays pure of the same dimension."""
    return all(k > 1 for k in c._ridge_counts)


def _m_fold(c: Complex, f: FieldSpec, m: int, plain, doubly) -> bool:
    """Deletions of fewer than m vertices stay `plain` of the same
    dimension: m=1 is `plain` itself, and m ≥ 2 sweeps the deletions of
    fewer than m − 1 vertices with the `doubly` criterion (module
    docstring).  The guard counts the subsets that m stands for."""
    if m < 1:
        raise ValueError("m must be at least 1")
    _guard_subsets(c, m)
    return _deletion_sweep(c, f, m - 1, doubly) if m > 1 else bool(plain(c, f))


def _doubly_cohen_macaulay(c: Complex, f: FieldSpec) -> bool:
    """Doubly CM by the projection criterion of the module docstring: CM,
    ridges shared and Buchsbaum*."""
    return bool(is_cohen_macaulay(c, f)) and _ridges_shared(c) and bool(is_buchsbaum_star(c, f))


def is_m_cohen_macaulay(c: Complex, f: FieldSpec, m: int) -> bool:
    """Deletions of fewer than m vertices stay Cohen-Macaulay of the same
    dimension (m=1 is plain Cohen-Macaulay, m=2 "doubly"), by `_m_fold`."""
    return _m_fold(c, f, m, is_cohen_macaulay, _doubly_cohen_macaulay)


def is_buchsbaum(c: Complex, f: FieldSpec) -> Verdict:
    """Pure, with every nonempty-face link Cohen-Macaulay."""
    if not c.is_pure:
        return Verdict(False, "not pure")
    _, face, why = _link_walk(c, f)
    return Verdict(why is None, why and f"link of {c.describe_face(_tuple_of(face))} {why}")


def _pair_projections(c: Complex, f: FieldSpec) -> bool:
    """Doubly Buchsbaum by the projection criterion of the module
    docstring: Buchsbaum, ridges shared, and H_d(c, cost G) projects onto
    H_d(c, cost (G ∪ v)) for every nonempty face G and vertex v of lk G."""
    return (bool(is_buchsbaum(c, f)) and _ridges_shared(c)
            and all(_projection_cokernel(c, f, t ^ bit, t) == 0
                    for d in range(1, c.dim + 1) for t in c.face_masks(d)
                    for bit in _bits(t)))


def _doubly_buchsbaum(c: Complex, f: FieldSpec) -> bool:
    """Doubly Buchsbaum: Buchsbaum* (the paper: Buchsbaum* implies doubly
    Buchsbaum), or else the pair projections of the module docstring."""
    return bool(is_buchsbaum_star(c, f)) or _pair_projections(c, f)


def is_m_buchsbaum(c: Complex, f: FieldSpec, m: int) -> bool:
    """Deletions of fewer than m vertices stay Buchsbaum of the same
    dimension (m=1 is plain Buchsbaum), by `_m_fold`."""
    return _m_fold(c, f, m, is_buchsbaum, _doubly_buchsbaum)


def is_doubly_buchsbaum(c: Complex, f: FieldSpec) -> bool:
    return is_m_buchsbaum(c, f, 2)


@_by_shape
def _projection_violation(c: Complex, f: FieldSpec):
    """The mask of the first nonempty face, in `_faces_ascending` order,
    onto whose star H_d(c) does not project, with the dimension of the
    cokernel (d = dim c), or None."""
    for face in _faces_ascending(c):
        coker = _projection_cokernel(c, f, 0, face)
        if coker:
            return face, coker
    return None


def is_buchsbaum_star(c: Complex, f: FieldSpec) -> Verdict:
    """Buchsbaum, and removing the open star of any nonempty face keeps the
    reduced Betti number one below top unchanged.

    A closed homology manifold of dimension d ≥ 1 that is orientable over
    f (one top cycle per component) is Buchsbaum* without a sweep (module
    docstring; in dimension 0 the count fails, so points are swept).
    Otherwise it is decided by the projection criterion; the
    witness gives the contrastar Betti number as β_{d-1}(c) + dim coker.
    Every nonempty face is checked; restricting to facets is not sound
    (one-dimensional counterexamples fail only at a vertex).
    """
    b = is_buchsbaum(c, f)
    if not b:
        return Verdict(False, f"not Buchsbaum: {b.witness}")
    if _links_are_spheres(c, f) and betti_at(c, f, c.dim) == betti_at(c, f, 0) + 1:
        return Verdict(True)
    violation = _projection_violation(c, f)
    if violation is None:
        return Verdict(True)
    face, coker = violation
    target = betti_at(c, f, c.dim - 1)
    return Verdict(False, f"{c.describe_face(_tuple_of(face))}: contrastar Betti "
                          f"{target + coker} != {target} in degree {c.dim - 1}")


def is_m_buchsbaum_star(c: Complex, f: FieldSpec, m: int) -> bool:
    """Deletions of fewer than m vertices stay Buchsbaum* of the same
    dimension; m=0 asks for plain Buchsbaumness."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return bool(is_buchsbaum(c, f))
    return _deletion_sweep(c, f, m, is_buchsbaum_star)


def is_gorenstein_star(c: Complex, f: FieldSpec) -> bool:
    """Every link, the whole complex included, has the reduced homology of
    a sphere of its own dimension: the whole complex has β = (0, ..., 0, 1)
    and every nonempty-face link is a sphere (`_links_are_spheres`).  That
    makes c CM, hence pure (see the module docstring)."""
    return not _link_violation(betti(c, f).betti, 1) and _links_are_spheres(c, f)


class ManifoldReport:
    """`is_homology_manifold`'s answer; `boundary` is the boundary
    complex of a manifold with boundary, else None."""

    __slots__ = ("manifold", "closed", "boundary", "orientable", "witness")

    def __init__(self, manifold: bool, closed: bool, boundary: Complex | None,
                 orientable: bool, witness: str | None = None):
        self.manifold = manifold
        self.closed = closed
        self.boundary = boundary
        self.orientable = orientable
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not ManifoldReport:
            return NotImplemented
        return (self.manifold, self.closed, self.boundary, self.orientable, self.witness) \
            == (other.manifold, other.closed, other.boundary, other.orientable, other.witness)


def is_homology_manifold(c: Complex, f: FieldSpec) -> ManifoldReport:
    """Closed-or-with-boundary homology manifold recognition, for every
    complex: a non-pure one is no manifold, with witness "not pure".

    Closed: every nonempty-face link is a homology sphere of complementary
    dimension.  With boundary: links may instead be homology balls (all
    reduced Betti numbers zero), and the faces with ball links must form
    a subcomplex, the boundary.  Orientability is top Betti = number of
    components (relative to the boundary if nonempty).

    Each link is tested once, not recursively as a manifold: a link of
    lk F is a link of c, lk_{lk F}(G) = lk(F ∪ G), so the loop over all
    faces decides it, and if the ball-link faces of c form a subcomplex,
    so do those of every lk F.
    """
    if not c.is_pure:
        return ManifoldReport(False, False, None, False, "not pure")
    d = c.dim
    if d == 0:
        return ManifoldReport(True, True, None, True)
    if _links_are_spheres(c, f):
        return ManifoldReport(True, True, None, betti_at(c, f, d) == betti_at(c, f, 0) + 1)
    # a passed link is a sphere (top 1), a ball (top 0) or neither; the failed one is neither
    tops, failed, _ = _link_walk(c, f)
    boundary_faces: set[int] = set()
    ball_note = None
    for face, top in zip(_faces_ascending(c), tops):
        if top > 1:
            failed = face
            break
        if top == 0:
            boundary_faces.add(face)
            if ball_note is None:
                ball_note = (f"boundary recognised by Betti vanishing, "
                             f"first at {c.describe_face(_tuple_of(face))}")
    if failed is not None:
        return ManifoldReport(
            False, False, None, False,
            f"link of {c.describe_face(_tuple_of(failed))} is neither a homology "
            f"sphere nor a homology ball",
        )
    if any(m ^ bit and m ^ bit not in boundary_faces
           for m in boundary_faces for bit in _bits(m)):
        return ManifoldReport(False, False, None, False,
                              "boundary faces do not form a subcomplex")
    ncomp = betti_at(c, f, 0) + 1  # over any field, as c is nonempty
    # H_d of the pair (c, boundary), on the nonempty faces off the boundary
    orientable = _kept_betti(c, lambda m: m and m not in boundary_faces, f, d) == (ncomp,)
    return ManifoldReport(True, False, _rebuild(boundary_faces, c), orientable, ball_note)


class PropertyReport:
    """`property_report`'s verdicts and witnesses over one field."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.verdicts: dict = {}
        self.witnesses: dict = {}

    def to_jsonable(self) -> dict:
        return {
            "field": str(self.field),
            "verdicts": dict(sorted(self.verdicts.items())),
            "witnesses": dict(sorted(self.witnesses.items())),
        }


def property_report(c: Complex, f: FieldSpec) -> PropertyReport:
    """Run every decider, cross-check the implication lattice, and collect
    witnesses."""
    report = PropertyReport(field=f)
    # built in this order, so each decider finds what those before it memoised
    results = {
        "cohen_macaulay": is_cohen_macaulay(c, f),
        "buchsbaum": is_buchsbaum(c, f),
        "buchsbaum*": is_buchsbaum_star(c, f),
        "doubly_cohen_macaulay": is_m_cohen_macaulay(c, f, 2),
        "doubly_buchsbaum": is_doubly_buchsbaum(c, f),
        "gorenstein*": is_gorenstein_star(c, f),
    }
    for name, result in results.items():
        report.verdicts[name] = bool(result)
        if isinstance(result, Verdict) and result.witness:
            report.witnesses[name] = result.witness
    mrep = is_homology_manifold(c, f)
    report.verdicts["homology_manifold"] = mrep.manifold
    report.verdicts["orientable_manifold"] = mrep.manifold and mrep.orientable
    if mrep.witness:
        report.witnesses["homology_manifold"] = mrep.witness

    v = report.verdicts
    implications = [
        ("buchsbaum*", "doubly_buchsbaum"),
        ("cohen_macaulay", "buchsbaum"),
        ("doubly_cohen_macaulay", "cohen_macaulay"),
        ("doubly_cohen_macaulay", "buchsbaum*"),
        ("gorenstein*", "doubly_cohen_macaulay"),
    ]
    for pre, post in implications:
        if v[pre] and not v[post]:
            raise ConsistencyError(
                f"implication violated on {c!r} over {f}: {pre} without {post}"
            )
    return report


def clear_caches() -> None:
    """Empty the one memo table, keyed by shape, of Betti tables, boundary
    columns, star cycles, link shapes, link walks and projection sweeps;
    the facet index and ridge counts of a complex go with the complex."""
    _shapes.clear()
