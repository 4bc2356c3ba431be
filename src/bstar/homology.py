"""Reduced simplicial homology over a field: complexes, pairs, contrastars.

Chain groups are spanned by the faces of each dimension, including the
empty face as the single (-1)-cell, so every Betti number below is
reduced.  Faces are ordered by their sorted vertex tuples; the boundary
of a face drops its k-th smallest vertex with sign (-1)^k.

`_boundary` is the one builder of boundary maps.  It gives one signed
pair (plus, minus) of `linalg` per cell its caller names, as face masks:
a bit at each face of the cell among the rows its caller names, in plus
where the face drops the cell's k-th smallest vertex for an even k, in
minus for an odd k.  A face that is not a row gives no entry.  So
boundary maps go to the bit-vector kernel of `linalg` over GF(2), GF(3)
and Q, with no dict on the way.  The callers name the faces of a whole
complex, those outside a subcomplex (a pair), those inside a subcomplex
(its cycles and the chains they may bound in), those that do not contain
a face (its contrastar), and the top facets through a face with their
ridges through it (a star, read from the facets through the face's
lowest vertex in the facet index of `complexes`, so no other facet or
face is visited).  Every rank goes to the sparse entry points of
`linalg`, and the span test of `_nonbounding_cycle` to one run of
`linalg._reduce` over its cycles, which stops at the first that does not
bound.  A subcomplex enters as its face masks in the
ambient complex, matched by label in `_embedded_face_set`, which maps
only its facets.

Every cycle basis comes from `linalg._kernel`, whose vectors over Q are
integral and unscaled, so a projection or span test meets no
``Fraction``.  Only `first_nonbounding_cycle` scales its cycle to 1 at
its last face, as `sparse_nullspace` would.

`_kept_betti` is the one loop that ranks Betti numbers: of the cells a
predicate keeps, of dimension at most a given top (that of the complex
by default), under the boundary of the whole complex, for the degrees
from a given one up to that top.  A single degree i of a pair or a
contrastar takes the top i + 1, which leaves H_i as it is, so only the
two maps next to degree i are built, however high the complex goes.
The loop keeps every cell for a complex (`betti`), the cells outside a
subcomplex for a pair (`relative_betti`, the orientability of a manifold
with boundary, the facet-pair excision of `theorems`) and the cells that
do not contain a face for a contrastar (`contrastar_betti`), which is
never built as a complex.  Its degree -1 counts the empty face only
where the predicate keeps it: never for a pair, whose subcomplex holds
the empty face, always for a contrastar, so the contrastar {∅} of the
only vertex of a point has beta_{-1} = 1.

The loop ranks from the top degree down, with clearing (Chen-Kerber 2011,
"Persistent homology computation with a twist"; see `linalg`): each
pivot row of the boundary map out of the (i+1)-cells is an i-cell whose
column in the map out of the i-cells would reduce to zero, so it is
left out of the cells handed to `_boundary`, and the rank is the number
of pivots of the columns that are left.  The kept rows of each degree
are the cells of the next one down, and a map with no rows, such as the
one out of the vertices of a pair, is rank 0 without elimination.

The projection of top cycles between stars (`_projection_cokernel`)
ranks the projected cycles only when the star of the larger face has
more than one top cycle.  The projections lie in the span of that
star's cycles, so with one cycle the rank is 1 if a projection is
nonzero, that is, if a cycle of the smaller star is nonzero on a top
face through the larger face, and 0 otherwise.
"""

from __future__ import annotations

import functools

from .complexes import Complex, _bits, _contrastar_mask, _face_set, _mask_of, _tuple_of
from .linalg import (FieldSpec, _check_cells, _divided, _kernel, _reduce, sparse_pivots,
                     sparse_rank)

__all__ = [
    "BettiTable",
    "betti",
    "betti_at",
    "reduced_euler_characteristic",
    "relative_betti",
    "contrastar_betti",
    "inclusion_induced_is_zero",
    "first_nonbounding_cycle",
    "relative_surjectivity",
    "top_projection_surjective",
]


class BettiTable:
    """Reduced Betti numbers beta_{-1}, beta_0, ..., beta_dim."""

    __slots__ = ("field", "betti")

    def __init__(self, field: FieldSpec, betti: tuple[int, ...]):
        self.field = field
        self.betti = betti

    def __eq__(self, other):
        if other.__class__ is not BettiTable:
            return NotImplemented
        return self.field == other.field and self.betti == other.betti

    def at(self, i: int) -> int:
        if -1 <= i <= len(self.betti) - 2:
            return self.betti[i + 1]
        return 0

    def top(self) -> int:
        return self.betti[-1]


def _boundary(cells, rows):
    """The boundary map from `cells` to `rows`, face masks one dimension
    apart, as signed pairs (see `linalg`): one column (plus, minus) per
    cell, with a bit at each of its faces that is a row.  A column is as
    wide as its highest row, so the cell guard of `linalg._reduce` is
    checked before any is built."""
    _check_cells(len(rows), len(cells))
    index = {m: i for i, m in enumerate(rows)}
    columns = []
    for m in cells:
        plus = minus = 0
        positive, rest = True, m
        while rest:
            bit = rest & -rest
            i = index.get(m ^ bit)
            if i is not None:
                if positive:
                    plus |= 1 << i
                else:
                    minus |= 1 << i
            positive, rest = not positive, rest ^ bit
        columns.append((plus, minus))
    return columns


# The one memo table: shape (vertex count, facet masks) -> {(function,
# *arguments): result}.  It keeps no complex alive; a hit enumerates no face.
_shapes: dict[tuple, dict] = {}


def _by_shape(fn):
    """Memoise fn(c, ...) in `_shapes` under `c._shape`, shared by every
    complex of the shape of c, so the result must carry no label.  The
    shape carries its hash, so a lookup hashes no facet mask."""
    @functools.wraps(fn)
    def memo(c, *args, **kwargs):
        entry = _shapes.setdefault(c._shape, {})
        key = (fn, *args, *kwargs.items())
        result = entry.get(key, entry)  # the entry itself stands for a miss
        if result is entry:
            result = entry[key] = fn(c, *args, **kwargs)
        return result
    return memo


def _kept_betti(c: Complex, keep, field: FieldSpec, low: int = -1,
                top: int | None = None) -> tuple[int, ...]:
    """dim H_i, for i = low, ..., top (default dim c), of the cells of c of
    dimension at most top that `keep` accepts (every cell for None), under
    the boundary of c: the chain complex of c, the quotient chain complex
    of a pair when they are the cells outside a subcomplex, or the chain
    complex of a subcomplex when they are its cells.  Below top these are
    the H_i of all the kept cells.  Degree -1 is the empty face, so it
    counts only if `keep` accepts it.  Ranked by clearing, from the top
    down (see the module docstring); a map with no rows is rank 0 and not
    handed to `linalg`."""
    def kept(d):
        return c.face_masks(d) if keep is None else [m for m in c.face_masks(d) if keep(m)]

    top = c.dim if top is None else top
    betti = []
    cells, cleared, rank_above = kept(top), (), 0
    for i in range(top, low - 1, -1):
        rows, pivots = kept(i - 1), ()
        if rows:
            pivots = sparse_pivots(_boundary([m for m in cells if m not in cleared], rows),
                                   len(rows), field)
        betti.append(len(cells) - len(pivots) - rank_above)
        cells, cleared, rank_above = rows, {rows[r] for r in pivots}, len(pivots)
    return tuple(reversed(betti))


@_by_shape
def betti(c: Complex, field: FieldSpec) -> BettiTable:
    return BettiTable(field, _kept_betti(c, None, field))


def betti_at(c: Complex, field: FieldSpec, i: int) -> int:
    """Single reduced Betti number; 0 outside -1..dim."""
    return betti(c, field).at(i)


def reduced_euler_characteristic(c: Complex) -> int:
    f = c.f_vector()
    return sum((-1) ** i * f[i + 1] for i in range(-1, c.dim + 1))


# -- pairs -------------------------------------------------------------


def _embedded_face_set(a: Complex, c: Complex) -> set[int]:
    """Masks in c of all faces of the subcomplex a, the empty face
    included; raises ValueError unless a is a subcomplex of c.  The one
    place where the vertices of two complexes are matched, by label: only
    the facets of a are mapped, and their faces are their submasks."""
    index = {lab: i for i, lab in enumerate(c.labels)}
    try:
        position = [index[lab] for lab in a.labels]
    except KeyError:
        raise ValueError("not a subcomplex: label missing from the ambient complex") from None
    facets = [_mask_of(position[v] for v in _tuple_of(m)) for m in a._facet_masks]
    if not all(c.has_mask(g) for g in facets):
        raise ValueError("not a subcomplex: facet missing from the ambient complex")
    return _face_set(facets)


def relative_betti(c: Complex, a: Complex, field: FieldSpec, i: int) -> int:
    """dim H_i of the pair (c, a), computed from the quotient chain complex
    of its cells of dimension at most i + 1, which has the same H_i, so
    only the two maps next to degree i are ranked."""
    excluded = _embedded_face_set(a, c)
    if not -1 <= i <= c.dim:
        return 0
    return _kept_betti(c, lambda m: m not in excluded, field, i, min(i + 1, c.dim))[0]


def contrastar_betti(c: Complex, face, field: FieldSpec, i: int) -> int:
    """The reduced Betti number beta_i of the contrastar of a nonempty face,
    ranked on the cells of c of dimension at most i + 1 that do not
    contain it, so no contrastar is built; 0 outside -1..dim."""
    s = _contrastar_mask(c, face)
    if not -1 <= i <= c.dim:
        return 0
    return _kept_betti(c, lambda m: m & s != s, field, i, min(i + 1, c.dim))[0]


def inclusion_induced_is_zero(a: Complex, c: Complex, i: int, field: FieldSpec) -> bool:
    """True iff every reduced i-cycle of the subcomplex a bounds in c."""
    return _nonbounding_cycle(c, _embedded_face_set(a, c), None, i, field) is None


def first_nonbounding_cycle(a: Complex, c: Complex, i: int, field: FieldSpec):
    """A cycle of a that is not a boundary in c, or None.

    Returned as a list of (coefficient, face-mask-in-c) pairs, a vector of
    the kernel basis of `sparse_nullspace`: 1 at its last face.
    """
    cycle = _nonbounding_cycle(c, _embedded_face_set(a, c), None, i, field)
    if cycle is None:
        return None
    coefficients = _divided([x for x, _ in cycle], cycle[-1][0], field.p)
    return [(x, m) for x, (_, m) in zip(coefficients, cycle)]


def _nonbounding_cycle(c: Complex, inside: set[int], around: set[int] | None,
                       i: int, field: FieldSpec):
    """The first basis i-cycle on the faces `inside` that is not a boundary
    of (i+1)-chains on the faces `around` (all of c for None), as
    (coefficient, face mask) pairs in the face order of c, or None.  Both
    are face-mask sets of subcomplexes of c, `inside` within `around`.
    The cycle is a kernel vector of `linalg._kernel`, integral over the
    rationals and not scaled, so it is nonzero at its last face.

    The boundaries and then the cycles are reduced in one run, which
    stops at the first cycle whose column keeps a pivot: that cycle is the
    witness, as every cycle before it lies in the span of the boundaries.
    The cell guard counts the boundaries and one cycle."""
    rows, cells = ([m for m in c.face_masks(d) if m in inside] for d in (i - 1, i))
    cycles = _kernel(_boundary(cells, rows), len(rows), field)
    if not cycles:
        return None
    faces, chains = (c.face_masks(d) if around is None
                     else [m for m in c.face_masks(d) if m in around] for d in (i, i + 1))
    target = _boundary(chains, faces)
    index = {m: j for j, m in enumerate(faces)}
    vecs = [{index[cells[k]]: coeff for k, coeff in z.items()} for _, z in cycles]
    free = _reduce([*target, *vecs], len(faces), field.p, stop=len(target))[1]
    bounding = sum(j >= len(target) for j, _ in free)  # the cycles before the witness
    if bounding < len(vecs):
        vec = vecs[bounding]
        return [(vec[k], faces[k]) for k in sorted(vec)]
    return None


@_by_shape
def _star_top_cycles(c: Complex, field: FieldSpec, face_mask: int):
    """The top faces containing `face_mask` and the kernel of the boundary
    map on them (= top homology of the pair (c, contrastar face), or of c
    for mask 0), each kernel vector keyed by face mask.

    The top faces are the largest facets through the face, read from the
    facet index at its lowest vertex (all facets for mask 0) in the order
    of `Complex.face_masks`, and the rows are their ridges through the
    face: no other face of c is visited.  The kernel vectors are those of
    `linalg._kernel`, integral over Q.  The kernel basis depends on the
    column order only, so the order of the rows does not matter."""
    top = c.dim + 1
    star = c._through.get(face_mask & -face_mask, ()) if face_mask else c._facet_masks
    cells = tuple(g for g in star if g & face_mask == face_mask and g.bit_count() == top)
    rows = dict.fromkeys(g ^ bit for g in cells for bit in _bits(g ^ face_mask))
    return cells, tuple({cells[k]: x for k, x in z.items()}
                        for _, z in _kernel(_boundary(cells, rows), len(rows), field))


def _projection_cokernel(c: Complex, field: FieldSpec, sm: int, tm: int) -> int:
    """Dimension of the cokernel of H_d(c, contrastar s) -> H_d(c, contrastar t),
    d = dim c, for face masks s ⊆ t (s = 0 stands for H_d(c) itself); see
    `relative_surjectivity` for the map."""
    _, ker_s = _star_top_cycles(c, field, sm)
    cells_t, ker_t = _star_top_cycles(c, field, tm)
    if not ker_t:
        return 0
    if len(ker_t) == 1:
        # The projections lie in the cycles of the star of t, the span of
        # ker_t, so their rank is 1 if one of them is nonzero, else 0.
        return 0 if any(not z.keys().isdisjoint(cells_t) for z in ker_s) else 1
    projected = [{j: z[m] for j, m in enumerate(cells_t) if m in z} for z in ker_s]
    return len(ker_t) - sparse_rank(projected, len(cells_t), field)


def relative_surjectivity(c: Complex, s, t, field: FieldSpec) -> bool:
    """Whether the top relative homology of (c, contrastar s) surjects onto
    that of (c, contrastar t) under the quotient chain map, for faces
    s ⊆ t with s nonempty.

    In the top dimension both relative homology groups are plain cycle
    spaces (there are no higher cells), and the induced map is projection
    onto the chains supported on faces containing t.
    """
    sm, tm = c.mask(s), c.mask(t)
    if sm == 0:
        raise ValueError("s must be nonempty")
    if sm & tm != sm:
        raise ValueError("s must be a subset of t")
    if not c.has_mask(tm):
        raise ValueError("not a face")
    return _projection_cokernel(c, field, sm, tm) == 0


def top_projection_surjective(c: Complex, t, field: FieldSpec) -> bool:
    """Whether absolute top homology surjects onto the top homology of the
    pair (c, contrastar t); the limiting case of relative_surjectivity as
    the smaller face shrinks to nothing."""
    tm = c.mask(t)
    if tm == 0:
        return True
    if not c.has_mask(tm):
        raise ValueError("not a face")
    return _projection_cokernel(c, field, 0, tm) == 0
