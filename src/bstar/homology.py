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
and Q, with no dict on the way.  `_boundary` checks the cell guard of
`linalg` on every map before it builds a column, and `linalg._reduce`
on what it is handed.  The callers name the uncleared faces of a whole
complex (`betti`, which keeps no column), all the faces of one
dimension (`_columns`), those inside a subcomplex (its cycles and the
chains they may bound in), and the top facets through a face with their
ridges through it (a star, read from the facets through the face's
lowest vertex in the facet index of `complexes`, so no other facet or
face is visited).  Every rank goes to the sparse entry points of
`linalg`, and the span test of `_nonbounding_cycle` to one run of
`linalg._reduce` over its cycles, which makes each cycle's column only
when it reads it and stops at the first cycle that does not bound.  A
subcomplex enters as its face masks in the ambient complex, matched by
label in `_embedded_face_set`, which maps only its facets.

Pairs and contrastars read the columns of their complex: `_columns`
builds the map out of all the d-faces, with rows indexed by all the
(d-1)-faces, once per shape and degree, on first request, and keeps it
in the shape memo (`_by_shape`).  A contrastar drops the columns of the
star of its face and needs no row mask, as no face of a cell outside the
star contains the face.  A pair ANDs each column it keeps with a mask of
its kept rows.  So the contrastars of every face, over every field, of
all the complexes of one shape build each column once.

Every cycle basis comes from `linalg._kernel`, whose vectors over Q are
integral and unscaled, so a projection or span test meets no
``Fraction``.  Only `first_nonbounding_cycle` scales its cycle to 1 at
its last face, as `sparse_nullspace` would.

`_kept_betti` is the one loop that ranks Betti numbers: of the cells it
keeps, of dimension at most a given top (that of the complex
by default), under the boundary of the whole complex, for the degrees
from a given one up to that top.  A single degree i of a pair or a
contrastar takes the top i + 1, which leaves H_i as it is, so only the
two maps next to degree i are built, however high the complex goes.
The loop keeps every cell for a complex (`betti`), the cells outside a
subcomplex for a pair (`relative_betti`, the orientability of a manifold
with boundary, the facet-pair excision of `theorems`) and the cells that
do not contain a face for a contrastar (`contrastar_betti`), which is
never built as a complex.  Its degree -1 counts the empty face only
where it is kept: never for a pair, whose subcomplex holds the empty
face, always for a contrastar, so the contrastar {∅} of the only vertex
of a point has beta_{-1} = 1.

The loop ranks from the top degree down, with clearing (Chen-Kerber 2011,
"Persistent homology computation with a twist"; see `linalg`): each
pivot row of the boundary map out of the (i+1)-cells is an i-cell whose
column in the map out of the i-cells would reduce to zero, so it is
left out of the columns handed to `linalg`, and the rank is the number
of pivots of the columns that are left.  The kept rows of each degree
are the cells of the next one down, and a map with no rows, such as the
one out of the vertices of a pair, is rank 0 without elimination.

A star (`_star_top_cycles`) is a bit mask over the facet index of its
complex, with the positions read off the pass that builds
`Complex._through` and counted from the star's first facet, so a mask is
as wide as the star, and its top cycles are signed pairs (plus, minus)
over the same bits; a cycle stays a dict {bit: coefficient} only when
a coefficient is not 1 or -1.  So the
projection of a cycle of one star onto another is one AND.  The
projection of top cycles between stars (`_projection_cokernel`) ranks
the projected cycles, on the bit kernel, only when the star of the
larger face has more than one top cycle.  The projections lie in the
span of that star's cycles, so with one cycle the rank is 1 if a
projection is nonzero, that is, if a cycle of the smaller star is
nonzero on a top face through the larger face, and 0 otherwise: one AND
of that star with the union of the supports of the smaller star's
cycles, which `_star_top_cycles` keeps with them, shifted to the first
facet of the larger face's star.
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
    wide as its highest row, so the cell guard of `linalg` counts the map
    before any column is built."""
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


def _bit_mask(positions, width: int) -> int:
    """The int with a bit at each of `positions`, all below `width`, set
    in one pass over a string of digits."""
    digits = bytearray(b"0" * width)
    for k in positions:
        digits[~k] = 49  # "1", counted from the end: bit k
    return int(digits, 2)


# The one memo table: shape (vertex count, facet masks) -> {(function,
# *arguments): result}.  It keeps no complex alive; a hit enumerates no face.
_shapes: dict[tuple, dict] = {}


def _by_shape(fn):
    """Memoise fn(c, ...) in `_shapes` under `c._shape`, shared by every
    complex of the shape of c, so the result must carry no label.  The
    shape carries its hash, so a lookup hashes no facet mask, and a hit
    makes no dict."""
    @functools.wraps(fn)
    def memo(c, *args, **kwargs):
        key = (fn, *args, *kwargs.items()) if kwargs else (fn, *args)
        try:
            return _shapes[c._shape][key]
        except KeyError:
            pass
        result = _shapes.setdefault(c._shape, {})[key] = fn(c, *args, **kwargs)
        return result
    return memo


@_by_shape
def _columns(c: Complex, d: int) -> list[tuple[int, int]]:
    """The boundary columns of all the d-faces of c, in face order, with
    rows indexed by all its (d-1)-faces: built once per shape and degree,
    on first request."""
    return _boundary(c.face_masks(d), c.face_masks(d - 1))


def _kept_betti(c: Complex, keep, field: FieldSpec, low: int = -1,
                top: int | None = None) -> tuple[int, ...]:
    """dim H_i, for i = low, ..., top (default dim c), of the cells of c of
    dimension at most top that `keep` keeps, under the boundary of c.
    `keep` is None for every cell (the chain complex of c), a face mask
    for the cells that do not contain that face (its contrastar), or a
    predicate on face masks that accepts the cells outside a subcomplex
    (the quotient chain complex of a pair).  Below top these are the H_i
    of all the kept cells.  Degree -1 is the empty face, so it counts
    only where it is kept: for a contrastar, not for a pair.  Ranked by
    clearing, from the top down (see the module docstring); a map with no
    rows is rank 0 and not handed to `linalg`, which counts the kept rows
    and uncleared columns of every other map under the cell guard."""
    def kept(d):  # the positions of the kept d-faces in c.face_masks(d)
        faces = c.face_masks(d)
        if keep is None:
            return range(len(faces))
        if type(keep) is int:
            return [k for k, m in enumerate(faces) if m & keep != keep]
        return [k for k, m in enumerate(faces) if keep(m)]

    top = c.dim if top is None else top
    betti = []
    cells, cleared, rank_above = kept(top), bytearray(len(c.face_masks(top))), 0
    for i in range(top, low - 1, -1):
        rows, pivots = kept(i - 1), ()
        if rows:
            pivots = sparse_pivots(_kept_columns(c, keep, i, cells, cleared, rows),
                                   len(rows), field)
        betti.append(len(cells) - len(pivots) - rank_above)
        cleared = bytearray(len(c.face_masks(i - 1)))  # a flag per face: no int is kept alive
        for r in pivots:
            cleared[r] = 1
        cells, rank_above = rows, len(pivots)
    return tuple(reversed(betti))


def _kept_columns(c: Complex, keep, d: int, cells, cleared: bytearray,
                  rows) -> list[tuple[int, int]]:
    """The columns of `_kept_betti` out of the d-faces of c at the positions
    `cells` that are not `cleared`, onto the kept (d-1)-faces at the
    positions `rows`: built here when every cell is kept, else read from
    `_columns`, and masked to the rows for a pair."""
    if keep is None:  # `cells` is every position: list the faces, not an int per position
        return _boundary([m for m, gone in zip(c.face_masks(d), cleared) if not gone],
                         c.face_masks(d - 1))
    cells = [k for k in cells if not cleared[k]]
    every = _columns(c, d)
    width = len(c.face_masks(d - 1))
    if type(keep) is int or len(rows) == width:
        return [every[k] for k in cells]
    mask = _bit_mask(rows, width)
    return [(every[k][0] & mask, every[k][1] & mask) for k in cells]


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
    return _kept_betti(c, s, field, i, min(i + 1, c.dim))[0]


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
    Each cycle's column is made only when the run reads it.  The cell
    guard counts the boundaries and one cycle."""
    rows, cells = ([m for m in c.face_masks(d) if m in inside] for d in (i - 1, i))
    cycles = [z for _, z in _kernel(_boundary(cells, rows), len(rows), field)]
    if not cycles:
        return None
    faces, chains = (c.face_masks(d) if around is None
                     else [m for m in c.face_masks(d) if m in around] for d in (i, i + 1))
    target = _boundary(chains, faces)
    index = {m: j for j, m in enumerate(faces)}

    def vector(z):  # a cycle as a column over the i-faces of `around`
        return {index[cells[k]]: coeff for k, coeff in z.items()}

    free = _reduce(_Then(target, cycles, vector), len(faces), field.p, stop=len(target))[1]
    bounding = sum(j >= len(target) for j, _ in free)  # the cycles before the witness
    if bounding < len(cycles):
        vec = vector(cycles[bounding])
        return [(vec[k], faces[k]) for k in sorted(vec)]
    return None


class _Then:
    """The columns `first`, then `make(z)` for each z of `rest`, each made
    when it is read: a sequence whose length `linalg._reduce` counts under
    the cell guard, and whose later columns cost nothing if the reduction
    stops before them."""

    __slots__ = ("first", "rest", "make")

    def __init__(self, first, rest, make):
        self.first, self.rest, self.make = first, rest, make

    def __len__(self):
        return len(self.first) + len(self.rest)

    def __iter__(self):
        yield from self.first
        yield from map(self.make, self.rest)


@_by_shape
def _star_top_cycles(c: Complex, field: FieldSpec, face_mask: int):
    """The top faces containing `face_mask`, as a bit mask over the facet
    index of c, the kernel of the boundary map on them (= top homology of
    the pair (c, contrastar face), or of c for mask 0), the facets on which
    some kernel vector is nonzero, as a mask too, and the position of the
    first of those top faces: bit k of each mask stands for the facet at
    that position plus k, so a mask is as wide as the star, not as the
    facet list.  Each kernel vector is a signed pair (plus, minus) over the
    same bits, or a dict {bit: coefficient} when one of its coefficients
    is not 1 or -1.

    The top faces are the largest facets through the face, read from the
    facet index at its lowest vertex (all facets for mask 0), with their
    positions, and the rows are their ridges through the face: no other
    face or facet of c is visited.  The kernel vectors are those of
    `linalg._kernel`, integral over Q.  The kernel basis depends on the
    column order only, so the order of the rows does not matter."""
    top = c.dim + 1
    star = c._through.get(face_mask & -face_mask, ()) if face_mask else c._facet_masks
    cells = [g for g in star if g & face_mask == face_mask and g.bit_count() == top]
    position = c._facet_index[1]  # made in the pass that builds `Complex._through`
    first = position[cells[0]] if cells else 0  # the cells are in facet order
    bits = [1 << position[g] - first for g in cells]
    rows = dict.fromkeys(g ^ bit for g in cells for bit in _bits(g ^ face_mask))
    negative = -1 if field.p is None else field.p - 1
    cycles, support = [], 0
    for _, z in _kernel(_boundary(cells, rows), len(rows), field):
        plus = minus = 0
        for k, x in z.items():
            if x == 1:
                plus |= bits[k]
            elif x == negative:
                minus |= bits[k]
            else:
                cycles.append({bits[k].bit_length() - 1: x for k, x in z.items()})
                break
        else:
            cycles.append((plus, minus))
        for k in z:
            support |= bits[k]
    return sum(bits), tuple(cycles), support, first


def _projection_cokernel(c: Complex, field: FieldSpec, sm: int, tm: int) -> int:
    """Dimension of the cokernel of H_d(c, contrastar s) -> H_d(c, contrastar t),
    d = dim c, for face masks s ⊆ t (s = 0 stands for H_d(c) itself); see
    `relative_surjectivity` for the map.  The star of t is a mask over the
    facet index, as are the cycles of the star of s, so projecting a cycle
    onto the star of t is one AND."""
    star_t, ker_t, _, first_t = _star_top_cycles(c, field, tm)
    if not ker_t:
        return 0
    _, ker_s, support_s, first_s = _star_top_cycles(c, field, sm)
    shift = first_t - first_s  # the star of t lies in that of s, so it starts no earlier
    if len(ker_t) == 1:
        # The projections lie in the cycles of the star of t, the span of
        # ker_t, so their rank is 1 if one of them is nonzero, else 0.
        return 0 if support_s >> shift & star_t else 1
    projected = [(z[0] >> shift & star_t, z[1] >> shift & star_t) if type(z) is tuple
                 else {k - shift: x for k, x in z.items() if k >= shift and star_t >> k - shift & 1}
                 for z in ker_s]
    # the rows are the facets of the star of t; the others hold no entry
    return len(ker_t) - sparse_rank(projected, star_t.bit_count(), field)


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
