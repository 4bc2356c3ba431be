"""Reduced simplicial homology over a field: complexes, pairs, contrastars.

Chain groups are spanned by the faces of each dimension, including the
empty face as the single (-1)-cell, so every Betti number below is
reduced.  Faces are ordered by their sorted vertex tuples; the boundary
of a face drops its k-th smallest vertex with sign (-1)^k.

`_boundary` is the one builder of boundary maps.  It gives sparse columns
in the format of `linalg` for the cells its caller names, as face masks,
into the rows its caller names; a face of a cell that is not a row gives
no entry.  The callers name the faces of a whole complex, those outside
a subcomplex (a pair), those inside a subcomplex (its cycles and the
chains they may bound in), those that do not contain a face (its
contrastar), and the top facets through a face with their ridges through
it (a star, listed from the facets, so no other face is visited).  Every
rank, cycle basis and span test goes to the sparse entry points of
`linalg`.  A subcomplex enters as its face masks in the ambient complex,
matched by label in `_embedded_face_set`.

`_kept_betti` gives the homology of the cells a predicate keeps, under
the boundary of the whole complex: of a pair (`relative_betti`) or of a
contrastar (`contrastar_betti`), which is never built as a complex.  Its
degree -1 counts the empty face only where the predicate keeps it: never
for a pair, whose subcomplex holds the empty face, always for a
contrastar, so the contrastar {∅} of the only vertex of a point has
beta_{-1} = 1.

Betti numbers, of a complex, a pair or a contrastar, are ranked from the
top degree down, with clearing (Chen-Kerber 2011, "Persistent homology
computation with a twist"; see `linalg`): each pivot row of the boundary
map out of the (i+1)-cells is an i-cell whose column in the map out of
the i-cells would reduce to zero, so it is left out of the cells handed
to `_boundary`, and the rank is the number of pivots of the columns that
are left.
"""

from __future__ import annotations

import functools

from .complexes import Complex, _bits, _contrastar_mask, _mask_of, _tuple_of
from .linalg import FieldSpec, sparse_in_span, sparse_nullspace, sparse_pivots, sparse_rank

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
    apart, as sparse columns (see `linalg`): one column per cell, with an
    entry at each of its faces that is a row."""
    index = {m: i for i, m in enumerate(rows)}
    columns = []
    for m in cells:
        col, sign, rest = {}, 1, m
        while rest:
            bit = rest & -rest
            i = index.get(m ^ bit)
            if i is not None:
                col[i] = sign
            sign, rest = -sign, rest ^ bit
        columns.append(col)
    return columns


# The one memo table: shape (vertex count, facet masks) -> {(function,
# *arguments): result}.  It keeps no complex alive; a hit enumerates no face.
_shapes: dict[tuple, dict] = {}


def _by_shape(fn):
    """Memoise fn(c, ...) in `_shapes`, shared by every complex of the
    shape of c, so the result must carry no label."""
    @functools.wraps(fn)
    def memo(c, *args, **kwargs):
        entry = _shapes.setdefault((c.n_vertices, c._facet_masks), {})
        key = (fn, *args, *kwargs.items())
        result = entry.get(key, entry)  # the entry itself stands for a miss
        if result is entry:
            result = entry[key] = fn(c, *args, **kwargs)
        return result
    return memo


@_by_shape
def betti(c: Complex, field: FieldSpec) -> BettiTable:
    # Ranked from the top degree down, with clearing (see the module docstring).
    ranks = [0] * (c.dim + 3)  # ranks[i + 1]: rank of the boundary out of the i-cells
    cleared = frozenset()
    for i in range(c.dim, -1, -1):
        rows = c.face_masks(i - 1)
        columns = _boundary([m for m in c.face_masks(i) if m not in cleared], rows)
        pivots = sparse_pivots(columns, len(rows), field)
        ranks[i + 1] = len(pivots)
        cleared = {rows[r] for r in pivots}
        del columns, rows, pivots  # one matrix alive at a time
    return BettiTable(field, tuple(len(c.face_masks(i)) - ranks[i + 1] - ranks[i + 2]
                                   for i in range(-1, c.dim + 1)))


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
    place where the vertices of two complexes are matched, by label."""
    index = {lab: i for i, lab in enumerate(c.labels)}
    try:
        position = [index[lab] for lab in a.labels]
    except KeyError:
        raise ValueError("not a subcomplex: label missing from the ambient complex") from None

    def embed(mask):
        return _mask_of(position[v] for v in _tuple_of(mask))

    if not all(c.has_mask(embed(m)) for m in a._facet_masks):
        raise ValueError("not a subcomplex: facet missing from the ambient complex")
    return {embed(m) for d in range(-1, a.dim + 1) for m in a.face_masks(d)}


def _kept_betti(c: Complex, keep, field: FieldSpec, i: int) -> int:
    """dim H_i of the cells of c that `keep` accepts, under the boundary of
    c: the quotient chain complex of a pair when they are the cells outside
    a subcomplex, the chain complex of a subcomplex when they are its cells.
    Degree -1 is the empty face, so it counts only if `keep` accepts it."""
    if i < -1 or i > c.dim:
        return 0
    rows, cells, above = ([m for m in c.face_masks(d) if keep(m)] for d in (i - 1, i, i + 1))
    # the upper map first: its pivot rows clear columns of the lower one
    pivots = sparse_pivots(_boundary(above, cells), len(cells), field)
    cleared = {cells[r] for r in pivots}
    lower = _boundary([m for m in cells if m not in cleared], rows)
    return len(cells) - len(pivots) - sparse_rank(lower, len(rows), field)


def relative_betti(c: Complex, a: Complex, field: FieldSpec, i: int) -> int:
    """dim H_i of the pair (c, a), computed from the quotient chain complex."""
    excluded = _embedded_face_set(a, c)
    return _kept_betti(c, lambda m: m not in excluded, field, i)


def contrastar_betti(c: Complex, face, field: FieldSpec, i: int) -> int:
    """The reduced Betti number beta_i of the contrastar of a nonempty face,
    ranked on the cells of c that do not contain it, so no contrastar is
    built; 0 outside -1..dim."""
    s = _contrastar_mask(c, face)
    return _kept_betti(c, lambda m: m & s != s, field, i)


def inclusion_induced_is_zero(a: Complex, c: Complex, i: int, field: FieldSpec) -> bool:
    """True iff every reduced i-cycle of the subcomplex a bounds in c."""
    return first_nonbounding_cycle(a, c, i, field) is None


def first_nonbounding_cycle(a: Complex, c: Complex, i: int, field: FieldSpec):
    """A cycle of a that is not a boundary in c, or None.

    Returned as a list of (coefficient, face-mask-in-c) pairs.
    """
    return _nonbounding_cycle(c, _embedded_face_set(a, c), None, i, field)


def _nonbounding_cycle(c: Complex, inside: set[int], around: set[int] | None,
                       i: int, field: FieldSpec):
    """The first basis i-cycle on the faces `inside` that is not a boundary
    of (i+1)-chains on the faces `around` (all of c for None), as
    (coefficient, face mask) pairs in the face order of c, or None.  Both
    are face-mask sets of subcomplexes of c, `inside` within `around`."""
    rows, cells = ([m for m in c.face_masks(d) if m in inside] for d in (i - 1, i))
    cycles = sparse_nullspace(_boundary(cells, rows), len(rows), field)
    if not cycles:
        return None
    faces, chains = (c.face_masks(d) if around is None
                     else [m for m in c.face_masks(d) if m in around] for d in (i, i + 1))
    target = _boundary(chains, faces)
    index = {m: j for j, m in enumerate(faces)}
    for z in cycles:
        vec = {index[cells[k]]: coeff for k, coeff in z.items()}
        if not sparse_in_span(target, len(faces), vec, field):
            return [(vec[j], faces[j]) for j in sorted(vec)]
    return None


@_by_shape
def _star_top_cycles(c: Complex, field: FieldSpec, face_mask: int):
    """The top faces containing `face_mask` and the kernel of the boundary
    map on them (= top homology of the pair (c, contrastar face), or of c
    for mask 0), each kernel vector keyed by face mask.

    The top faces are the largest facets, read off the facet list in the
    order of `Complex.face_masks`, and the rows are their ridges through
    the face: no other face of c is visited.  The kernel basis depends on
    the column order only, so the order of the rows does not matter."""
    top = c.dim + 1
    cells = tuple(g for g in c._facet_masks
                  if g & face_mask == face_mask and g.bit_count() == top)
    rows = dict.fromkeys(g ^ bit for g in cells for bit in _bits(g ^ face_mask))
    return cells, tuple({cells[k]: x for k, x in z.items()}
                        for z in sparse_nullspace(_boundary(cells, rows), len(rows), field))


def _projection_cokernel(c: Complex, field: FieldSpec, sm: int, tm: int) -> int:
    """Dimension of the cokernel of H_d(c, contrastar s) -> H_d(c, contrastar t),
    d = dim c, for face masks s ⊆ t (s = 0 stands for H_d(c) itself); see
    `relative_surjectivity` for the map."""
    _, ker_s = _star_top_cycles(c, field, sm)
    cells_t, ker_t = _star_top_cycles(c, field, tm)
    if not ker_t:
        return 0
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
