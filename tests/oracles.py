"""Independent brute-force oracles used to derive expected test values.

The homology oracles on facet lists work on plain frozensets via explicit
subset closure and compute ranks with sympy (rationals) or a hand-rolled
column-style modular elimination, deliberately sharing no code with the
package.
`pair_homology` gives the relative Betti numbers of a pair from the
quotient chain complex, and the rank of H_i(a) -> H_i(c) from Betti
numbers alone, through the long exact sequence of the pair, where the
package reduces each cycle of a against the boundaries of c.  The
oracles that take a `Complex` use the package's public API and helpers:
`link_homology_violation` walks the links anew for each decider, where
the package walks them once per shape and field and CM, Buchsbaum,
Gorenstein* and the manifold recogniser read that walk;
`buchsbaum_star_by_contrastars` decides by the definition,
rebuilding every contrastar, where the package projects top cycles; and
`manifold_report_by_recursion` recognises a manifold with boundary by
deciding each ball-like link as a manifold in turn, where the package
tests each link once.  The m-fold projection deciders are compared with
`properties._deletion_sweep`, which builds and decides every deletion,
and the m ≥ 3 deciders, which sweep the doubly criteria one level
down, with `m_fold_by_rebuild`, which rebuilds every deletion of fewer
than m vertices from labelled facets and walks its links anew.
`link_walk_by_every_link` builds the link of every nonempty face by a
scan of the whole facet list, where the package reads the links of
facets and ridges of a pure complex off the facet list and finds the
others through its per-vertex facet index.
`pivot_rows_by_pairing` finds the pivot row of each column of the
left-to-right reduction from ranks of lower-left submatrices (the
pairing lemma), and `kernel_by_enumeration` the kernel basis among all
vectors of a small GF(p)^n, where the package reduces GF(2) columns as
bit-vectors; both rank with `rank_modular` on residues taken here.
`projection_cokernel_by_rank` ranks the projection of every pair of
stars, each built from a scan of the facet list with its own boundary
map and kernel, where the package reads a star of one top cycle off the
support of the projected cycles, over the facet index.
`nonbounding_cycle_by_span_tests` asks whether each cycle lies in the
span of the boundaries with its own `sparse_in_span`, where the package
reduces the boundaries and all the cycles together once.
`connectivity_by_all_pairs` runs the package's flow on every
nonadjacent pair, where the package stops after the first κ + 1 sources.
`betti_by_full_ranks` and `relative_betti_by_full_ranks` rank every
boundary map in full, bottom-up, where the package ranks top-down and
skips the columns that the degree above proves zero (clearing).  They
build their columns themselves, over the vertex tuples of `c.faces`, and
share with the package only the face enumeration and `sparse_rank`, as
their point is elimination with clearing against elimination without.
"""

import itertools
from fractions import Fraction

import sympy

from bstar.complexes import _rebuild, components, contrastar, from_facets, link
from bstar.homology import _boundary, _embedded_face_set, betti, betti_at, relative_betti
from bstar.linalg import _kernel, sparse_in_span, sparse_nullspace, sparse_rank
from bstar.properties import ManifoldReport, _link_violation, is_buchsbaum
from bstar.rigidity import _max_internally_disjoint


def closure(facets):
    faces = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for k in range(len(f) + 1):
            faces.update(map(frozenset, itertools.combinations(f, k)))
    return faces


def faces_by_dim(faces):
    out = {}
    for f in faces:
        out.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for d in out:
        out[d].sort()
    return out


def boundary_matrix(fb, d):
    """Rows: (d-1)-faces, cols: d-faces; d=0 gives the augmentation row
    when fb holds the empty face.  Boundary faces missing from fb are
    dropped, which gives the quotient by a subcomplex."""
    idx = {f: i for i, f in enumerate(fb.get(d - 1, []))}
    m = sympy.zeros(len(idx), len(fb.get(d, [])))
    for j, f in enumerate(fb.get(d, [])):
        for pos, v in enumerate(f):
            i = idx.get(tuple(x for x in f if x != v))
            if i is not None:
                m[i, j] = (-1) ** pos
    return m


def rank_rational(m) -> int:
    return m.rank()


def rank_modular(m, p) -> int:
    """Gauss-Jordan elimination on columns mod p, clearing each pivot row
    in every other column (the package reduces left to right only)."""
    cols = [[int(m[i, j]) % p for i in range(m.rows)] for j in range(m.cols)]
    rank = 0
    used_rows = set()
    for col in cols:
        pivot_row = next((i for i, x in enumerate(col)
                          if x and i not in used_rows), None)
        if pivot_row is None:
            continue
        inv = pow(col[pivot_row], p - 2, p)
        col = [x * inv % p for x in col]
        for other in cols:
            if other is not col and other[pivot_row]:
                factor = other[pivot_row]
                for i in range(len(other)):
                    other[i] = (other[i] - factor * col[i]) % p
        used_rows.add(pivot_row)
        rank += 1
    return rank


def chain_betti(faces, top, p=None):
    """Betti numbers (beta_-1, ..., beta_top) of the chain complex spanned
    by a set of faces (frozensets), each boundary restricted to the set."""
    fb = faces_by_dim(faces)
    ranks = {}
    for d in range(0, top + 1):
        m = boundary_matrix(fb, d)
        if m.rows == 0 or m.cols == 0:
            ranks[d] = 0
        else:
            ranks[d] = rank_rational(m) if p is None else rank_modular(m, p)
    return tuple(len(fb.get(i, [])) - ranks.get(i, 0) - ranks.get(i + 1, 0)
                 for i in range(-1, top + 1))


def betti_numbers(facets, p=None):
    """Reduced Betti numbers (beta_-1, ..., beta_top) by definition."""
    faces = closure(facets)
    return chain_betti(faces, max(len(f) for f in faces) - 1, p)


def pair_homology(a_facets, c_facets, p=None):
    """(image, relative) for a subcomplex a of c, given by facets of labels:
    `relative` is (beta_-1, ..., beta_dim c) of the pair (c, a), from the
    quotient chain complex, and `image[i]` is dim im(H_i(a) -> H_i(c)) for
    i = -1..dim c.  The image is read off the Betti numbers of a, c and
    (c, a) by exactness of the long exact sequence of the pair
    ... -> H_{i+1}(c, a) -> H_i(a) -> H_i(c) -> H_i(c, a) -> H_{i-1}(a) ...,
    walked down from the top degree, where H_{top+1}(c, a) = 0."""
    fa, fc = closure(a_facets), closure(c_facets)
    assert fa <= fc, "not a subcomplex"
    top = max(len(f) for f in fc) - 1
    ba, bc, relative = (chain_betti(s, top, p) for s in (fa, fc, fc - fa))
    image, connecting = {}, 0  # rank of H_{i+1}(c, a) -> H_i(a)
    for i in range(top, -2, -1):
        image[i] = ba[i + 1] - connecting
        connecting = relative[i + 1] - (bc[i + 1] - image[i])
    assert connecting == 0  # H_{-2}(a) = 0
    return image, relative


def minimal_nonfaces(c):
    """Sets that are not faces while all their proper subsets are.

    A minimal non-face has at most dim+2 vertices; every vertex subset
    up to that size is tested, so this is for small complexes only.
    """
    out = []
    for k in range(2, c.dim + 3):
        for comb in itertools.combinations(range(c.n_vertices), k):
            m = sum(1 << v for v in comb)
            if c.has_mask(m):
                continue
            if all(c.has_mask(m & ~(1 << v)) for v in comb):
                out.append(comb)
    return out


def rank_by_minors(rows) -> int:
    """Rank as the largest k with a nonsingular k x k minor (tiny inputs)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    best = 0
    for k in range(1, min(m, n) + 1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = sympy.Matrix([[rows[i][j] for j in ci] for i in ri])
                if sub.det() != 0:
                    best = k
                    break
            else:
                continue
            break
    return best


def connectivity_by_cuts(n, edges) -> int:
    """Vertex connectivity by exhausting candidate cut sets."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def connected(removed):
        left = [v for v in range(n) if v not in removed]
        if not left:
            return True
        seen = {left[0]}
        stack = [left[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(left)

    if all(len(adj[v]) == n - 1 for v in range(n)):
        return n - 1
    for k in range(0, n):
        for cut in itertools.combinations(range(n), k):
            if not connected(set(cut)):
                return k
    return n - 1


def connectivity_by_all_pairs(g) -> int:
    """Vertex connectivity as the least Menger count over every
    nonadjacent pair, n - 1 for a complete graph.  It shares the flow,
    `rigidity._max_internally_disjoint`, with the package, which runs it
    from the first κ + 1 vertices only: the loop bound is what it checks."""
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    counts = [_max_internally_disjoint(adj, g.n, s, t)
              for s, t in itertools.combinations(range(g.n), 2) if t not in adj[s]]
    return min(counts, default=g.n - 1)


def nonempty_faces(c):
    """The nonempty faces of c as vertex tuples, by dimension, then sorted."""
    return [face for d in range(c.dim + 1) for face in c.faces(d)]


def link_homology_violation(c, f, include_empty, top=None):
    """First face, by dimension and then sorted, whose link fails the link
    test (see `_link_violation`); the empty face stands for the whole
    complex.  `include_empty` puts the whole complex first (CM and
    Gorenstein*); `top=1` asks for spheres (Gorenstein*)."""
    for face in ([()] if include_empty else []) + nonempty_faces(c):
        why = _link_violation(betti(c if not face else link(c, face), f).betti, top)
        if why:
            where = "the whole complex" if not face else f"link of {c.describe_face(face)}"
            return f"{where} {why}"
    return None


def m_fold_by_rebuild(c, f, m, cm):
    """Whether every deletion of fewer than m vertices keeps the dimension
    of c and is Cohen-Macaulay (`cm`) or Buchsbaum, each deletion rebuilt
    from the labelled facets of c by `from_facets` and decided by
    `link_homology_violation`.  A deletion with no vertex left is {∅},
    which keeps the dimension only when c is {∅} itself."""
    facets = [c.face_labels(facet) for facet in c.facets]
    for k in range(m):
        for gone in itertools.combinations(c.labels, k):
            kept = [[lab for lab in facet if lab not in gone] for facet in facets]
            if any(kept):
                rest = from_facets(kept)
            elif c.dim == -1:
                rest = c
            else:
                return False
            if rest.dim != c.dim or not (cm or rest.is_pure):
                return False
            if link_homology_violation(rest, f, cm) is not None:
                return False
    return True


def buchsbaum_star_by_contrastars(c, field):
    """(verdict, witness) of Buchsbaum*ness by the definition: Buchsbaum,
    and every nonempty face's contrastar keeps the reduced Betti number
    one below top.  Faces go by dimension, then in sorted order."""
    b = is_buchsbaum(c, field)
    if not b:
        return False, f"not Buchsbaum: {b.witness}"
    target = betti_at(c, field, c.dim - 1)
    for d in range(0, c.dim + 1):
        for face in c.faces(d):
            got = betti_at(contrastar(c, face), field, c.dim - 1)
            if got != target:
                return False, (f"{c.describe_face(face)}: contrastar Betti {got} "
                               f"!= {target} in degree {c.dim - 1}")
    return True, None


def manifold_report_by_recursion(c, f):
    """`is_homology_manifold` with each ball-like link required to be a
    homology manifold itself, decided by recursion."""
    if not c.is_pure:
        return ManifoldReport(False, False, None, False, "not pure")
    d = c.dim
    if d == 0:
        return ManifoldReport(True, True, None, True)
    boundary_faces = set()
    ball_note = None
    closed = True
    for face in nonempty_faces(c):
        lk = link(c, face)
        b = betti(lk, f).betti
        if _link_violation(b, top=1) is None:
            continue
        closed = False
        if _link_violation(b, top=0) is None and manifold_report_by_recursion(lk, f).manifold:
            boundary_faces.add(c.mask(face))
            if ball_note is None:
                ball_note = (f"boundary recognised by Betti vanishing and "
                             f"recursion, first at {c.describe_face(face)}")
        else:
            return ManifoldReport(
                False, False, None, False,
                f"link of {c.describe_face(face)} is neither a homology "
                f"sphere nor a homology ball",
            )
    ncomp = len(components(c))
    if closed:
        return ManifoldReport(True, True, None, betti_at(c, f, d) == ncomp)
    bcomplex = _rebuild(sorted(boundary_faces), c)
    if _embedded_face_set(bcomplex, c) != boundary_faces | {0}:
        return ManifoldReport(False, False, None, False,
                              "boundary faces do not form a subcomplex")
    orientable = relative_betti(c, bcomplex, f, d) == ncomp
    return ManifoldReport(True, False, bcomplex, orientable, ball_note)


def boundary_columns(c, d, kept=lambda face: True):
    """The boundary map from the kept d-faces of c to its kept (d-1)-faces,
    as sparse columns over the vertex tuples of `c.faces`, dropping the
    k-th smallest vertex with sign (-1)^k; with the two face counts."""
    rows = {face: i for i, face in enumerate(f for f in c.faces(d - 1) if kept(f))}
    cells = [face for face in c.faces(d) if kept(face)]
    columns = []
    for face in cells:
        col = {}
        for k in range(len(face)):
            row = rows.get(face[:k] + face[k + 1:])
            if row is not None:
                col[row] = (-1) ** k
        columns.append(col)
    return columns, len(cells), len(rows)


def betti_by_full_ranks(c, field):
    """Reduced Betti numbers (beta_-1, ..., beta_dim) of c, each boundary
    map built and ranked in full, from degree 0 up, with no clearing."""
    ranks = [0] * (c.dim + 3)  # ranks[i + 1]: rank of the boundary out of the i-cells
    for i in range(0, c.dim + 1):
        columns, _, nrows = boundary_columns(c, i)
        ranks[i + 1] = sparse_rank(columns, nrows, field)
    return tuple(len(c.faces(i)) - ranks[i + 1] - ranks[i + 2]
                 for i in range(-1, c.dim + 1))


def relative_betti_by_full_ranks(c, excluded, field, i):
    """dim H_i of the pair (c, a), for the face masks `excluded` of a in c,
    from both boundary maps of the quotient chain complex in full."""
    if i < 0 or i > c.dim:
        return 0

    def outside(face):
        return sum(1 << v for v in face) not in excluded
    lower, ncells, nrows = boundary_columns(c, i, outside)
    upper = boundary_columns(c, i + 1, outside)[0]
    return (ncells - sparse_rank(lower, nrows, field)
            - sparse_rank(upper, ncells, field))


def projection_cokernel_by_rank(c, field, sm, tm):
    """`homology._projection_cokernel` for face masks sm ⊆ tm, always by
    rank: the top cycles of the star of tm less the rank of the top
    cycles of the star of sm projected onto its top faces.  A star is
    every top facet of c through the face, found by a scan of the facet
    list, with its boundary map onto the ridges through the face, built
    here over vertex tuples, and its cycles are a `sparse_nullspace` basis
    of that map."""
    def star_cycles(mask):
        face = {v for v in range(c.n_vertices) if mask >> v & 1}
        cells = [f for f in c.facets if len(f) == c.dim + 1 and face <= set(f)]
        rows, columns = {}, []
        for f in cells:
            columns.append({rows.setdefault(f[:k] + f[k + 1:], len(rows)): (-1) ** k
                            for k, v in enumerate(f) if v not in face})
        return cells, sparse_nullspace(columns, len(rows), field)

    cells_s, ker_s = star_cycles(sm)
    cells_t, ker_t = star_cycles(tm)
    where = {f: j for j, f in enumerate(cells_t)}
    projected = [{where[cells_s[k]]: x for k, x in z.items() if cells_s[k] in where}
                 for z in ker_s]
    return len(ker_t) - sparse_rank(projected, len(cells_t), field)


def link_walk_by_every_link(c, f):
    """`properties._link_walk` with no facet or ridge read off the facet
    list: the link of every nonempty face, by dimension and then sorted,
    rebuilt from the sets G - F over a scan of all facets G, up to the
    first with reduced homology below its top dimension.  Returns the top
    Betti numbers passed, the failing face's mask and why, or None, None."""
    tops = []
    for face in nonempty_faces(c):
        s = c.mask(face)
        lk = _rebuild([g & ~s for g in c._facet_masks if g & s == s], c)
        b = betti(lk, f).betti
        why = _link_violation(b, None)
        if why:
            return tuple(tops), s, why
        tops.append(b[-1])
    return tuple(tops), None, None


def signed_column(plus, minus):
    """A (plus, minus) column of bit-vectors (see `linalg`) as {row: 1 or -1}."""
    assert not plus & minus
    return {**{i: 1 for i in range(plus.bit_length()) if plus >> i & 1},
            **{i: -1 for i in range(minus.bit_length()) if minus >> i & 1}}


def residue_columns(columns, p):
    """Sparse columns with each entry a/b taken as a times the inverse of b
    mod p, zeros dropped; a ValueError when p divides a denominator."""
    out = []
    for col in columns:
        kept = {}
        for i, x in col.items():
            x = Fraction(x)
            if x.denominator % p == 0:
                raise ValueError(f"{x} has no residue mod {p}")
            if x.numerator * pow(x.denominator, -1, p) % p:
                kept[i] = x.numerator * pow(x.denominator, -1, p) % p
        out.append(kept)
    return out


class _Dense:
    """Residue columns restricted to some rows, read as a dense matrix by
    `rank_modular`."""

    def __init__(self, columns, rows):
        self.cols, self.rows = len(columns), len(rows)
        self._columns, self._rows = columns, rows

    def __getitem__(self, ij):
        i, j = ij
        return self._columns[j].get(self._rows[i], 0)


def rank_of_columns(columns, rows, p):
    """Rank mod p of residue columns restricted to the given rows."""
    return rank_modular(_Dense(columns, list(rows)), p)


def pivot_rows_by_pairing(columns, nrows, p):
    """The pivot row of each column of the left-to-right reduction mod p
    (see `linalg`), or None for a column that reduces to zero, by the
    pairing lemma: column j ends at row i exactly when
    r(i, j+1) - r(i+1, j+1) - r(i, j) + r(i+1, j) = 1, where r(i, j) is the
    rank of rows i, i+1, ... of the first j columns (Cohen-Steiner,
    Edelsbrunner and Morozov 2006, "Vines and vineyards by updating
    persistence in linear time")."""
    res = residue_columns(columns, p)

    def r(i, j):
        return rank_of_columns(res[:j], range(i, nrows), p)

    return [next((i for i in range(nrows)
                  if r(i, j + 1) - r(i + 1, j + 1) - r(i, j) + r(i + 1, j) == 1), None)
            for j in range(len(columns))]


def kernel_by_enumeration(columns, nrows, p):
    """The kernel basis mod p with one vector per column that reduces to
    zero, 1 there and 0 at every other such column, each picked out of all
    p^n vectors; as {column: residue} dicts, for a handful of columns."""
    res = residue_columns(columns, p)
    free = [j for j, i in enumerate(pivot_rows_by_pairing(columns, nrows, p)) if i is None]
    kernel = [v for v in itertools.product(range(p), repeat=len(res))
              if all(sum(v[j] * col.get(i, 0) for j, col in enumerate(res)) % p == 0
                     for i in range(nrows))]
    return [{k: x for k, x in enumerate(v) if x}
            for j in free for v in kernel if [v[k] for k in free] == [int(k == j) for k in free]]


def nonbounding_cycle_by_span_tests(c, inside, around, i, field):
    """`homology._nonbounding_cycle` with one span test per cycle: the
    first kernel vector of the boundary on the i-faces `inside` that
    `sparse_in_span` finds outside the span of the boundaries of the
    (i+1)-faces `around` (all of c for None), as (coefficient, face mask)
    pairs, or None."""
    rows, cells = ([m for m in c.face_masks(d) if m in inside] for d in (i - 1, i))
    faces, chains = (c.face_masks(d) if around is None
                     else [m for m in c.face_masks(d) if m in around] for d in (i, i + 1))
    target = _boundary(chains, faces)
    index = {m: j for j, m in enumerate(faces)}
    for _, z in _kernel(_boundary(cells, rows), len(rows), field):
        vec = {index[cells[k]]: x for k, x in z.items()}
        if not sparse_in_span(target, len(faces), vec, field):
            return [(vec[j], faces[j]) for j in sorted(vec)]
    return None
