"""Finite simplicial complexes as immutable facet families.

A complex stores its facets only; membership of any face is "is a subset
of some facet".  Vertices are dense 0-based indices, each carrying an
optional hashable label that survives links/deletions/contrastars (labels
are what the CLI prints, and `homology._embedded_face_set` matches a
subcomplex to its ambient complex by them).
Faces cross the public API as sorted tuples of vertex indices; internally
every face is a bitmask int over the vertex set, and the deciders keep it
so up to the witness, the one place a tuple is made (`describe_face`).
`_link` is `link` of a mask, and `_bits` the one iterator over the
vertices of a mask.

Costs follow the faces, never the vertex subsets.  Purity
(`Complex.is_pure`) compares the smallest and largest facet.  Flagness
(`is_flag`) checks that every clique of the 1-skeleton is a face by
extending each face with its common neighbours: O(faces x degree).
`components` joins the vertices along the edges with a union-find.

Serialization writes labels as strings, so `to_json` and `to_text`
refuse a complex in which two vertices' labels print alike (1 and "1"),
as parsing the output back would merge them.  `to_text` also refuses a
label that is empty, holds whitespace or starts with "{": parsed back,
the text would lose it, split it, or read as JSON.  It refuses a label
that starts with a byte-order mark too, which the CLI drops from the
start of a file.  `from_facets`, and
so `parse`, refuses distinct labels that would merge, being equal in
Python (1 and True).

The empty complex {∅} (no vertices, only the empty face) can arise from
deletions and contrastars but is deliberately not constructible from
facet input: parsers reject it.
"""

from __future__ import annotations

import itertools
import json
import os
from functools import cached_property
from collections.abc import Hashable, Iterable

__all__ = [
    "Complex",
    "FaceCountError",
    "from_facets",
    "link",
    "deletion",
    "contrastar",
    "skeleton",
    "join",
    "cone",
    "is_flag",
    "components",
    "parse",
    "to_json",
    "to_text",
]

DEFAULT_MAX_FACES = 1 << 22
_max_faces: int | None = None  # None: BSTAR_MAX_FACES, read on use


class FaceCountError(RuntimeError):
    """Raised when enumerating a complex would exceed the face guard."""


def set_max_faces(n: int) -> None:
    global _max_faces
    _max_faces = int(n)


def get_max_faces() -> int:
    """The face guard: the value given to `set_max_faces`, else the
    BSTAR_MAX_FACES environment variable, else DEFAULT_MAX_FACES."""
    if _max_faces is not None:
        return _max_faces
    env = os.environ.get("BSTAR_MAX_FACES")
    if env is None:
        return DEFAULT_MAX_FACES
    try:
        return _positive_int(env)
    except ValueError as exc:
        raise ValueError(f"BSTAR_MAX_FACES {exc}") from None


def _guard_faces(count: int) -> None:
    """Refuse a complex of `count` faces, the empty face included, above
    the face guard."""
    limit = get_max_faces()
    if count > limit:
        raise FaceCountError(f"complex exceeds the face guard of {limit} faces")


def _positive_int(text: str) -> int:
    """`text` as an integer of at least 1; anything else is a ValueError."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return n


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for v in indices:
        m |= 1 << v
    return m


def _bits(mask: int):
    """The one-vertex masks of `mask`, lowest vertex first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _tuple_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks, each once; 0 is kept only when it is
    the only mask.  Larger masks come first, and each mask is compared
    only with the kept masks through its lowest vertex."""
    kept: list[int] = []
    through: dict[int, list[int]] = {}
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not m:
            return kept or [0]
        if any(m & k == m for k in through.get(m & -m, ())):
            continue
        kept.append(m)
        rest = m
        while rest:
            bit = rest & -rest
            through.setdefault(bit, []).append(m)
            rest ^= bit
    return kept


def _label_key(label):
    return (label.__class__.__name__, repr(label))


def _sort_labels(labels):
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=_label_key)


class Complex:
    """Immutable finite simplicial complex.

    Construct via :func:`from_facets` (or the operations below); the raw
    constructor expects already-dense facet bitmasks.
    """

    def __init__(self, facet_masks: Iterable[int], n_vertices: int,
                 labels: tuple[Hashable, ...] | None = None):
        masks = _maximal(facet_masks)
        if not masks:
            masks = [0]
        if labels is None:
            labels = tuple(range(n_vertices))
        if len(labels) != n_vertices:
            raise ValueError("label count does not match vertex count")
        union = 0
        for m in masks:
            union |= m
        if n_vertices and union != (1 << n_vertices) - 1:
            raise ValueError("vertex set must equal the union of the facets")
        self.n_vertices = n_vertices
        self.labels = labels
        self._facet_masks = tuple(sorted(masks, key=lambda m: (m.bit_count(), _tuple_of(m))))
        self._hash = hash((n_vertices, self._facet_masks))

    # -- basic views ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._facet_masks[-1].bit_count() - 1

    @property
    def is_pure(self) -> bool:
        return self._facet_masks[0].bit_count() == self._facet_masks[-1].bit_count()

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_tuple_of(m) for m in self._facet_masks)

    @cached_property
    def _faces_by_dim(self) -> dict[int, tuple[int, ...]]:
        limit = get_max_faces()
        seen: set[int] = set()
        for facet in self._facet_masks:
            sub = facet
            while True:
                if sub not in seen:
                    seen.add(sub)
                    if len(seen) > limit:
                        _guard_faces(len(seen))
                if sub == 0:
                    break
                sub = (sub - 1) & facet
        buckets: dict[int, list[int]] = {}
        for m in seen:
            buckets.setdefault(m.bit_count() - 1, []).append(m)
        return {d: tuple(sorted(ms, key=_tuple_of)) for d, ms in buckets.items()}

    def faces(self, d: int) -> list[tuple[int, ...]]:
        """All faces of dimension exactly d (empty list if out of range)."""
        return [_tuple_of(m) for m in self._faces_by_dim.get(d, [])]

    def face_masks(self, d: int) -> tuple[int, ...]:
        """The stored (not copied) masks of the d-faces, in `faces` order."""
        return self._faces_by_dim.get(d, ())

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_{dim}); f_-1 is always 1."""
        return tuple([1] + [len(self._faces_by_dim.get(d, []))
                            for d in range(0, self.dim + 1)])

    def has_mask(self, mask: int) -> bool:
        return any(mask & f == mask for f in self._facet_masks)

    def is_face(self, face: Iterable[int]) -> bool:
        return self.has_mask(_mask_of(face))

    def mask(self, face: Iterable[int]) -> int:
        face = list(face)
        if any(not (0 <= v < self.n_vertices) for v in face):
            raise ValueError(f"vertex index out of range: {face}")
        return _mask_of(face)

    def face_labels(self, face: Iterable[int]) -> tuple:
        return tuple(self.labels[v] for v in sorted(face))

    def describe_face(self, face: Iterable[int]) -> str:
        names = [str(x) for x in self.face_labels(face)]
        if len(names) == 1:
            return f"vertex {names[0]}"
        return "face {" + ",".join(names) + "}"

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Complex)
                and self.n_vertices == other.n_vertices
                and self._facet_masks == other._facet_masks
                and self.labels == other.labels)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Complex(n={self.n_vertices}, dim={self.dim}, "
                f"facets={len(self._facet_masks)})")


def from_facets(facet_list: Iterable[Iterable[Hashable]]) -> Complex:
    """Build a complex from facets given as collections of vertex labels.

    Dominated faces are dropped; labels are mapped to dense indices in
    sorted order so the construction is deterministic.  Inputs with no
    nonempty facet, or with distinct labels Python holds equal, are rejected.
    """
    facets = [tuple(f) for f in facet_list]
    first: dict[Hashable, Hashable] = {}
    for lab in itertools.chain.from_iterable(facets):
        if _label_key(first.setdefault(lab, lab)) != _label_key(lab):
            raise ValueError(f"labels {first[lab]!r} and {lab!r} are equal in "
                             f"Python and would merge into one vertex")
    if not first:
        raise ValueError("no facets")
    labels = tuple(_sort_labels(first))
    index = {lab: i for i, lab in enumerate(labels)}
    masks = [_mask_of(index[lab] for lab in f) for f in facets]
    return Complex(masks, len(labels), labels)


def _rebuild(masks: Iterable[int], parent: Complex) -> Complex:
    """Reindex `masks` densely and inherit parent labels; `Complex` keeps
    the maximal ones, as reindexing keeps inclusions and the union."""
    masks = set(masks)
    union = 0
    for m in masks:
        union |= m
    old = _tuple_of(union)
    remap = {v: i for i, v in enumerate(old)}
    new_masks = []
    for m in masks:
        new_masks.append(_mask_of(remap[v] for v in _tuple_of(m)))
    return Complex(new_masks, len(old), tuple(parent.labels[v] for v in old))


def link(c: Complex, face: Iterable[int]) -> Complex:
    """Link of `face`: all faces disjoint from it whose union with it is a face."""
    return _link(c, c.mask(face))


def _link(c: Complex, s: int) -> Complex:
    """The link of the face with mask `s` (see `link`)."""
    if s == 0:
        return c
    masks = [f & ~s for f in c._facet_masks if f & s == s]
    if not masks:
        raise ValueError("not a face")
    return _rebuild(masks, c)


def deletion(c: Complex, vertices: Iterable[int]) -> Complex:
    """All faces avoiding every vertex in `vertices`."""
    t = c.mask(vertices)
    if t == 0:
        return c
    return _rebuild([f & ~t for f in c._facet_masks], c)


def _contrastar_mask(c: Complex, face: Iterable[int]) -> int:
    """The mask of `face`; a ValueError unless it is a nonempty face of c."""
    s = c.mask(face)
    if s == 0:
        raise ValueError("contrastar of the empty face is not defined")
    if not c.has_mask(s):
        raise ValueError("not a face")
    return s


def contrastar(c: Complex, face: Iterable[int]) -> Complex:
    """All faces that do not contain `face` (which must be a nonempty face)."""
    s = _contrastar_mask(c, face)
    masks = []
    for f in c._facet_masks:
        if f & s != s:
            masks.append(f)
        else:
            for v in _tuple_of(s):
                masks.append(f & ~(1 << v))
    return _rebuild(masks, c)


def skeleton(c: Complex, i: int) -> Complex:
    """All faces of dimension at most i."""
    if i < 0:
        raise ValueError("skeleton dimension must be nonnegative")
    if i >= c.dim:
        return c
    masks = []
    for f in c._facet_masks:
        verts = _tuple_of(f)
        if len(verts) <= i + 1:
            masks.append(f)
        else:
            for comb in itertools.combinations(verts, i + 1):
                masks.append(_mask_of(comb))
    return _rebuild(masks, c)


def join(g: Complex, d: Complex) -> Complex:
    """Simplicial join: faces are unions of one face from each side."""
    shift = g.n_vertices
    masks = [fg | (fd << shift) for fg in g._facet_masks for fd in d._facet_masks]
    labels = tuple((0, lab) for lab in g.labels) + tuple((1, lab) for lab in d.labels)
    return Complex(masks, g.n_vertices + d.n_vertices, labels)


def cone(c: Complex, apex_label: Hashable = "apex") -> Complex:
    """Join of `c` with a single new vertex."""
    apex = 1 << c.n_vertices
    masks = [f | apex for f in c._facet_masks]
    return Complex(masks, c.n_vertices + 1, c.labels + (apex_label,))


def is_flag(c: Complex) -> bool:
    """Every clique of the 1-skeleton is a face.

    A clique that is not a face contains a minimal non-face K with at
    least 3 vertices; K minus its largest vertex w is a face F whose
    vertices are all adjacent to w.  So it suffices to check, for each
    face F with at least 2 vertices, that F plus any common neighbour
    above max(F) is a face: O(faces x degree) work.
    """
    adjacent = [0] * c.n_vertices
    for e in c._faces_by_dim.get(1, []):
        low = e & -e
        adjacent[low.bit_length() - 1] |= e ^ low
        adjacent[e.bit_length() - 1] |= low
    faces = {m for d in range(1, c.dim + 1) for m in c._faces_by_dim[d]}
    for f in faces:
        common = ~((1 << f.bit_length()) - 1)
        rest = f
        while rest:
            bit = rest & -rest
            common &= adjacent[bit.bit_length() - 1]
            rest ^= bit
        while common:
            bit = common & -common
            if f | bit not in faces:
                return False
            common ^= bit
    return True


def components(c: Complex) -> tuple[Complex, ...]:
    """The connected components of c, each rebuilt with the labels of c,
    in the order of their smallest vertex.

    {∅} has no vertex and so no component, though its reduced beta_0 + 1
    is 1.  A caller that only counts the components of a nonempty complex
    reads beta_0 + 1 over any field instead, from the memoised Betti table.
    """
    parent = list(range(c.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in c.faces(1):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in range(c.n_vertices):
        groups.setdefault(find(v), []).append(v)
    comps = []
    for verts in sorted(groups.values()):
        vm = _mask_of(verts)
        comps.append(_rebuild([f for f in c._facet_masks if f & vm == f], c))
    return tuple(comps)


# -- file format ------------------------------------------------------

_JSON_SCALARS = (str, int, float, bool, type(None))


def parse(text: str) -> Complex:
    """Parse the canonical JSON facet format, or plain text (one facet
    per line, whitespace-separated labels)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if not isinstance(data, dict) or "facets" not in data:
            raise ValueError('expected an object with a "facets" key')
        facets = data["facets"]
        if not (isinstance(facets, list)
                and all(isinstance(f, list) and all(isinstance(x, _JSON_SCALARS) for x in f)
                        for f in facets)):
            raise ValueError('"facets" must be a list of lists of vertex labels '
                             '(strings, numbers, booleans or null)')
        return from_facets(facets)
    facets = []
    for line in text.splitlines():
        parts = line.split()
        if parts:
            facets.append(parts)
    return from_facets(facets)


def _string_facets(c: Complex) -> list[list[str]]:
    """Sorted facets of sorted string labels; refuses labels that print
    alike, as they would merge when the output is parsed back."""
    names = [str(lab) for lab in c.labels]
    first: dict[str, Hashable] = {}
    for lab, name in zip(c.labels, names):
        if name in first:
            raise ValueError(f"labels {first[name]!r} and {lab!r} both print as {name!r}")
        first[name] = lab
    return sorted(sorted(names[v] for v in f) for f in c.facets)


def to_json(c: Complex) -> str:
    """Canonical serialization: sorted facets of sorted string labels."""
    return json.dumps({"facets": _string_facets(c)}, sort_keys=True)


def to_text(c: Complex) -> str:
    """One facet per line, labels separated by spaces; refuses labels that
    the text cannot carry (module docstring)."""
    facets = _string_facets(c)
    for name in map(str, c.labels):
        if name.split() != [name] or name.startswith(("{", "\ufeff")):
            raise ValueError(f"label {name!r} cannot be written as text: it is empty, "
                             f"holds whitespace or starts with '{{' or a byte-order mark")
    return "\n".join(" ".join(f) for f in facets) + "\n"
