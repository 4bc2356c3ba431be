"""Deciders for the simplicial complex property hierarchy.

Everything here reduces to reduced Betti numbers of links, deletions and
contrastars.  Cohen-Macaulayness is decided by link homology vanishing
below top dimension; Buchsbaumness adds purity and restricts to nonempty
faces; Buchsbaum*ness additionally requires that removing the open star
of any nonempty face (the contrastar) does not change the reduced Betti
number one below top.  All deciders are pure and memoised.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from math import comb

from .complexes import Complex, _rebuild, contrastar, deletion, link, predicates
from .homology import _embedded_face_set, betti_at, relative_betti
from .linalg import FieldSpec

__all__ = [
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
]

DEFAULT_MAX_SUBSETS = 10**6
_max_subsets = DEFAULT_MAX_SUBSETS


def set_max_subsets(n: int) -> None:
    global _max_subsets
    _max_subsets = int(n)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _faces_ascending(c: Complex, include_empty: bool):
    if include_empty:
        yield ()
    for d in range(0, c.dim + 1):
        for t in c.faces(d):
            yield t


def _link_homology_violation(c: Complex, f: FieldSpec, include_empty: bool,
                             sphere: bool) -> str | None:
    """First face whose link violates the vanishing (or sphere) pattern.

    With sphere=False: all reduced Betti numbers of every link must vanish
    below the link's own top dimension.  With sphere=True the top Betti
    number must additionally equal 1.
    """
    for face in _faces_ascending(c, include_empty):
        lk = c if not face else link(c, face)
        top = lk.dim
        for i in range(-1, top):
            if betti_at(lk, f, i) != 0:
                where = "the whole complex" if not face else f"link of {c.describe_face(face)}"
                return f"{where} has nonzero reduced homology in degree {i}"
        if sphere and betti_at(lk, f, top) != 1:
            where = "the whole complex" if not face else f"link of {c.describe_face(face)}"
            return f"{where} has top reduced Betti number {betti_at(lk, f, top)}, expected 1"
    return None


@lru_cache(maxsize=None)
def is_cohen_macaulay(c: Complex, f: FieldSpec) -> Verdict:
    """Link homology vanishes below top dimension, for every face."""
    violation = _link_homology_violation(c, f, include_empty=True, sphere=False)
    return Verdict(violation is None, violation)


def _deletion_sweep(c: Complex, f: FieldSpec, m: int, decider) -> bool:
    """Every deletion of fewer than m vertices, smallest first, keeps the
    dimension of c and passes `decider`; guarded by the subset count."""
    total = sum(comb(c.n_vertices, k) for k in range(m))
    if total > _max_subsets:
        raise RuntimeError(
            f"deletion sweep needs {total} subsets, above the guard of {_max_subsets}"
        )
    for k in range(m):
        for subset in itertools.combinations(range(c.n_vertices), k):
            rest = c if not subset else deletion(c, subset)
            if rest.dim != c.dim or not decider(rest, f):
                return False
    return True


@lru_cache(maxsize=None)
def is_m_cohen_macaulay(c: Complex, f: FieldSpec, m: int) -> bool:
    """Deletions of fewer than m vertices stay Cohen-Macaulay of the same
    dimension (m=1 is plain Cohen-Macaulay, m=2 "doubly")."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _deletion_sweep(c, f, m, is_cohen_macaulay)


@lru_cache(maxsize=None)
def is_buchsbaum(c: Complex, f: FieldSpec) -> Verdict:
    """Pure, with every nonempty-face link Cohen-Macaulay."""
    if not c.is_pure:
        return Verdict(False, "not pure")
    violation = _link_homology_violation(c, f, include_empty=False, sphere=False)
    return Verdict(violation is None, violation)


@lru_cache(maxsize=None)
def is_m_buchsbaum(c: Complex, f: FieldSpec, m: int) -> bool:
    """Deletions of fewer than m vertices stay Buchsbaum of the same dimension."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _deletion_sweep(c, f, m, is_buchsbaum)


def is_doubly_buchsbaum(c: Complex, f: FieldSpec) -> bool:
    return is_m_buchsbaum(c, f, 2)


@lru_cache(maxsize=None)
def is_buchsbaum_star(c: Complex, f: FieldSpec) -> Verdict:
    """Buchsbaum, and removing the open star of any nonempty face keeps the
    reduced Betti number one below top unchanged.

    Every nonempty face is checked; restricting to facets is not sound
    (one-dimensional counterexamples fail only at a vertex).
    """
    b = is_buchsbaum(c, f)
    if not b:
        return Verdict(False, f"not Buchsbaum: {b.witness}")
    target = betti_at(c, f, c.dim - 1)
    for face in _faces_ascending(c, include_empty=False):
        got = betti_at(contrastar(c, face), f, c.dim - 1)
        if got != target:
            return Verdict(
                False,
                f"{c.describe_face(face)}: contrastar Betti {got} != {target} "
                f"in degree {c.dim - 1}",
            )
    return Verdict(True)


@lru_cache(maxsize=None)
def is_m_buchsbaum_star(c: Complex, f: FieldSpec, m: int) -> bool:
    """Deletions of fewer than m vertices stay Buchsbaum* of the same
    dimension; m=0 asks for plain Buchsbaumness."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return bool(is_buchsbaum(c, f))
    return _deletion_sweep(c, f, m, is_buchsbaum_star)


@lru_cache(maxsize=None)
def is_gorenstein_star(c: Complex, f: FieldSpec) -> bool:
    """Every link (including the whole complex) has the reduced homology of
    a sphere of its own dimension."""
    return _link_homology_violation(c, f, include_empty=True, sphere=True) is None


@dataclass(frozen=True)
class ManifoldReport:
    manifold: bool
    closed: bool
    boundary: Complex | None
    orientable: bool
    witness: str | None = None


def _sphere_like(lk: Complex, f: FieldSpec) -> bool:
    top = lk.dim
    if betti_at(lk, f, top) != 1:
        return False
    return all(betti_at(lk, f, i) == 0 for i in range(-1, top))


def _ball_like(lk: Complex, f: FieldSpec) -> bool:
    return all(betti_at(lk, f, i) == 0 for i in range(-1, lk.dim + 1))


@lru_cache(maxsize=None)
def _manifold_report(c: Complex, f: FieldSpec) -> ManifoldReport:
    if not c.is_pure:
        return ManifoldReport(False, False, None, False, "not pure")
    d = c.dim
    if d == 0:
        return ManifoldReport(True, True, None, True)
    boundary_faces: set[int] = set()
    ball_note = None
    closed = True
    for face in _faces_ascending(c, include_empty=False):
        lk = link(c, face)
        if _sphere_like(lk, f):
            continue
        closed = False
        if _ball_like(lk, f) and _manifold_report(lk, f).manifold:
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
    ncomp = len(predicates(c).components)
    if closed:
        return ManifoldReport(True, True, None, betti_at(c, f, d) == ncomp)
    bcomplex = _rebuild(sorted(boundary_faces), c)
    if _embedded_face_set(bcomplex, c) != boundary_faces | {0}:
        return ManifoldReport(False, False, None, False,
                              "boundary faces do not form a subcomplex")
    orientable = relative_betti(c, bcomplex, f, d) == ncomp
    return ManifoldReport(True, False, bcomplex, orientable, ball_note)


def is_homology_manifold(c: Complex, f: FieldSpec) -> ManifoldReport:
    """Closed-or-with-boundary homology manifold recognition.

    Closed: every nonempty-face link is a homology sphere of complementary
    dimension.  With boundary: links may instead be homology balls (all
    reduced Betti numbers zero, recursively manifold); the boundary
    subcomplex collects the faces with ball links.  Orientability is top
    Betti = number of components (relative to the boundary if nonempty).
    """
    if not c.is_pure:
        raise ValueError("homology manifold recognition requires a pure complex")
    return _manifold_report(c, f)


@dataclass
class PropertyReport:
    field: FieldSpec
    verdicts: dict = dc_field(default_factory=dict)
    witnesses: dict = dc_field(default_factory=dict)
    timings: dict = dc_field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "field": str(self.field),
            "verdicts": dict(sorted(self.verdicts.items())),
            "witnesses": dict(sorted(self.witnesses.items())),
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
        }


def property_report(c: Complex, f: FieldSpec) -> PropertyReport:
    """Run every decider, cross-check the implication lattice, and collect
    witnesses and timings."""
    report = PropertyReport(field=f)

    def run(name, fn):
        t0 = time.perf_counter()
        result = fn()
        report.timings[name] = time.perf_counter() - t0
        if isinstance(result, Verdict):
            report.verdicts[name] = result.ok
            if result.witness:
                report.witnesses[name] = result.witness
        else:
            report.verdicts[name] = bool(result)
        return result

    run("cohen_macaulay", lambda: is_cohen_macaulay(c, f))
    run("doubly_cohen_macaulay", lambda: is_m_cohen_macaulay(c, f, 2))
    run("buchsbaum", lambda: is_buchsbaum(c, f))
    run("doubly_buchsbaum", lambda: is_doubly_buchsbaum(c, f))
    run("buchsbaum*", lambda: is_buchsbaum_star(c, f))
    run("gorenstein*", lambda: is_gorenstein_star(c, f))
    if c.is_pure:
        mrep = is_homology_manifold(c, f)
        report.verdicts["homology_manifold"] = mrep.manifold
        report.verdicts["orientable_manifold"] = mrep.manifold and mrep.orientable
        if mrep.witness:
            report.witnesses["homology_manifold"] = mrep.witness
    else:
        report.verdicts["homology_manifold"] = False
        report.verdicts["orientable_manifold"] = False
        report.witnesses["homology_manifold"] = "not pure"

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
            raise RuntimeError(
                f"implication violated on {c!r} over {f}: {pre} without {post}"
            )
    return report
