"""Verification battery: the library's known implications and identities,
run mechanically over a corpus of complexes.

Each check returns a TheoremResult with a pass/fail verdict and the
offending instances, if any.  `run_battery` runs the whole suite; checks
marked builtin-only compare against expected verdicts of the named corpus
and are skipped for user-supplied corpora.

Each check is a pure function of (entries, fields), so the battery runs
on one worker per usable CPU: the process itself and forked children.
Every worker claims the next check index from one pipe, a byte per
check, and each child sends back the results of the checks that
returned.  A check that no worker finished, because it raised or its
worker died, runs again in the process afterwards, and the results come
back in `ALL_CHECKS` order.  So the report is byte-identical on any
number of CPUs, the first failing check raises as in one loop, and one
CPU, a process with threads or a platform without `os.fork` runs that
loop with no fork.

The surjectivity oracle ranks the Betti number of each face's contrastar
in place with `contrastar_betti`, on the cells of the complex that do not
contain the face, with the boundary maps of the contrastar itself and no
projection of top cycles; its surjectivity side walks the face masks of
each face and its nonempty submasks into `_projection_cokernel`.  The
facet shortcut probe, which runs on Buchsbaum complexes only, asks
`top_projection_surjective` instead: there the exact sequence in
`properties` makes it the same test.  `check_excision` and
`check_counterexample_fidelity` still build contrastars with
`contrastar`, as the battery's end-to-end check of that construction
and of the label matching of `_embedded_face_set`, which `check_excision`
runs once per facet pair for all its fields and degrees.
"""

from __future__ import annotations

import marshal
import os
import sys
from functools import partial
from math import comb

from .complexes import _submasks, components, contrastar, join, link, skeleton
from .constructions import (EarDecomposition, corpus, cross_polytope, example_2_10_i,
                            example_2_10_iii, from_facets, named, path, product,
                            simplex_boundary, stacked_sphere, torus7,
                            verify_ear_decomposition)
from .homology import (_embedded_face_set, _kept_betti, _projection_cokernel, _shapes, betti,
                       betti_at, contrastar_betti, reduced_euler_characteristic,
                       top_projection_surjective)
from .linalg import DEFAULT_FIELDS, GF2, QQ
from .properties import (_deletion_sweep, _pair_projections, _projection_violation,
                         is_buchsbaum, is_buchsbaum_star, is_cohen_macaulay,
                         is_doubly_buchsbaum, is_homology_manifold, is_m_buchsbaum_star,
                         is_m_cohen_macaulay)
from .rigidity import graph_of, is_generically_d_rigid, vertex_connectivity
from .vectors import (conjecture_probe, deletion_identity_check, face_vectors,
                      flag_bound_check, h_vector, lbt_check, m_vector_check,
                      stacked_face_counts)


class TheoremResult:
    """One check's verdict and its notes, failures included."""

    def __init__(self, name: str, passed: bool):
        self.name = name
        self.passed = passed
        self.details: list[str] = []

    def fail(self, msg: str):
        self.passed = False
        self.details.append(msg)

    def note(self, msg: str):
        self.details.append(msg)


def _buchsbaum_star_entries(entries, fields):
    for name, c in entries:
        for f in fields:
            if is_buchsbaum_star(c, f):
                yield name, c, f


# -- individual checks --------------------------------------------------


def _memoised() -> int:
    """The results held in the memo table, over every shape."""
    return sum(map(len, _shapes.values()))


def check_counterexample_fidelity(entries, fields) -> TheoremResult:
    """The two doubly-Buchsbaum-but-not-Buchsbaum* corpus complexes.  Each
    block's work is bounded by the results it adds to the memo table: at
    most 16 and 70 per field from empty, so the bounds keep a 2x margin
    and the verdict does not depend on the clock."""
    r = TheoremResult("counterexample_fidelity", True)
    ex1 = example_2_10_i()
    ex3 = example_2_10_iii()
    for f in (QQ, GF2):
        before = _memoised()
        if not is_buchsbaum(ex1, f):
            r.fail(f"example_2_10_i not Buchsbaum over {f}")
        if not is_doubly_buchsbaum(ex1, f):
            r.fail(f"example_2_10_i not doubly Buchsbaum over {f}")
        v = is_buchsbaum_star(ex1, f)
        if v or "vertex p" not in (v.witness or ""):
            r.fail(f"example_2_10_i Buchsbaum* verdict/witness wrong over {f}: {v}")
        added = _memoised() - before
        if added > 36:
            r.fail(f"example_2_10_i checks memoised {added} results over {f}, above 36")
        before = _memoised()
        if betti_at(ex3, f, 1) != 1:
            r.fail(f"example_2_10_iii beta_1 != 1 over {f}")
        top_costs = [betti_at(contrastar(ex3, fc), f, 1) for fc in ex3.faces(2)]
        if max(top_costs) != 2:
            r.fail(f"example_2_10_iii facet contrastar beta_1 max {max(top_costs)} != 2")
        if not is_doubly_buchsbaum(ex3, f):
            r.fail(f"example_2_10_iii not doubly Buchsbaum over {f}")
        if is_buchsbaum_star(ex3, f):
            r.fail(f"example_2_10_iii unexpectedly Buchsbaum* over {f}")
        added = _memoised() - before
        if added > 140:
            r.fail(f"example_2_10_iii checks memoised {added} results over {f}, above 140")
    return r


def _swept_buchsbaum_star(c, f) -> bool:
    """Buchsbaum* by the projection sweep alone.  `is_buchsbaum_star`
    reads closed orientable manifolds off the dichotomy checked here."""
    return bool(is_buchsbaum(c, f)) and _projection_violation(c, f) is None


def check_orientability_dichotomy(entries, fields) -> TheoremResult:
    """Orientable torus is Buchsbaum* over both default fields; the
    projective plane only in characteristic 2.  Buchsbaum* is taken from
    the projection sweep, not from the decider that assumes the
    dichotomy."""
    r = TheoremResult("orientability_dichotomy", True)
    t = torus7()
    rp = named("rp2_6")
    for f in (QQ, GF2):
        if not _swept_buchsbaum_star(t, f):
            r.fail(f"torus7 not Buchsbaum* over {f}")
    if not _swept_buchsbaum_star(rp, GF2):
        r.fail("rp2_6 not Buchsbaum* over gf:2")
    if _swept_buchsbaum_star(rp, QQ):
        r.fail("rp2_6 unexpectedly Buchsbaum* over q")
    for name, c, f in [("torus7", t, QQ), ("torus7", t, GF2), ("rp2_6", rp, QQ),
                       ("rp2_6", rp, GF2)]:
        rep = is_homology_manifold(c, f)
        if not (rep.manifold and rep.closed):
            r.fail(f"{name} not recognised as closed manifold over {f}")
    # every closed manifold of dim >= 1 in the corpus obeys the dichotomy
    for name, c in entries:
        if c.dim < 1:
            continue
        for f in fields:
            rep = is_homology_manifold(c, f)
            if rep.manifold and rep.closed and \
                    rep.orientable != _swept_buchsbaum_star(c, f):
                r.fail(f"{name}: orientability and Buchsbaum* disagree over {f}")
    return r


def check_cm_collapse(entries, fields, minimum_slice=0) -> TheoremResult:
    """On Cohen-Macaulay complexes, Buchsbaum* must coincide with doubly
    Cohen-Macaulay.  `is_m_cohen_macaulay` decides m = 2 by the Buchsbaum*
    projection itself, so doubly CM is taken from the deletion sweep."""
    r = TheoremResult("cm_buchsbaum_star_collapse", True)
    negatives = 0
    for f in fields:
        cm_slice = [(n, c) for n, c in entries if is_cohen_macaulay(c, f)]
        if len(cm_slice) < minimum_slice:
            r.fail(f"CM slice over {f} has only {len(cm_slice)} complexes")
        for name, c in cm_slice:
            a = bool(is_buchsbaum_star(c, f))
            b = _deletion_sweep(c, f, 2, is_cohen_macaulay)
            if a != b:
                r.fail(f"{name} over {f}: Buchsbaum*={a} but doubly CM={b}")
            if not a:
                negatives += 1
        r.note(f"{f}: {len(cm_slice)} CM complexes, no disagreement")
    if minimum_slice and not negatives:
        r.fail("no negative instance in the CM slice")
    return r


def check_buchsbaum_star_implications(entries, fields) -> TheoremResult:
    """Buchsbaum* forces nonvanishing top homology, double Buchsbaumness,
    and doubly-CM links of all nonempty faces.  `is_doubly_buchsbaum`
    reads the Buchsbaum* verdict, so double Buchsbaumness is taken from
    the pair projections."""
    r = TheoremResult("buchsbaum_star_implications", True)
    count = 0
    for name, c, f in _buchsbaum_star_entries(entries, fields):
        count += 1
        if betti_at(c, f, c.dim) <= 0:
            r.fail(f"{name} over {f}: top Betti vanishes")
        if not _pair_projections(c, f):
            r.fail(f"{name} over {f}: not doubly Buchsbaum")
        for d in range(0, c.dim + 1):
            for face in c.faces(d):
                if not is_m_cohen_macaulay(link(c, face), f, 2):
                    r.fail(f"{name} over {f}: link of {c.describe_face(face)} "
                           f"not doubly CM")
                    break
    r.note(f"{count} Buchsbaum* instances checked")
    return r


def check_surjectivity_oracle(entries, fields) -> TheoremResult:
    """The Buchsbaum* decider, which projects top cycles, agrees with two
    independent computations: the contrastar Betti numbers themselves,
    ranked on the boundary maps of each contrastar's cells in the complex
    (`contrastar_betti`), and the relative-homology surjectivity criterion
    over all nested pairs of nonempty faces."""
    r = TheoremResult("contrastar_surjectivity_oracle", True)
    for name, c in entries:
        for f in fields:
            direct = bool(is_buchsbaum_star(c, f))
            target = betti_at(c, f, c.dim - 1)
            oracle = bool(is_buchsbaum(c, f)) and all(
                contrastar_betti(c, t, f, c.dim - 1) == target
                and all(_projection_cokernel(c, f, s, tm) == 0 for s in _submasks(tm))
                for d in range(c.dim + 1) for t, tm in zip(c.faces(d), c.face_masks(d)))
            if direct != oracle:
                r.fail(f"{name} over {f}: direct={direct} oracle={oracle}")
    return r


def check_vector_identities(entries, fields) -> TheoremResult:
    """h'_d = top Betti, h_d = signed reduced Euler characteristic, the
    f/h round trip, and the vertex deletion identities."""
    r = TheoremResult("vector_identities", True)
    for name, c in entries:
        d = c.dim + 1
        fv = c.f_vector()
        h = h_vector(c)
        # round trip: f_{j-1} = sum_i C(d-i, d-j) h_i
        for j in range(d + 1):
            back = sum(comb(d - i, d - j) * h[i] for i in range(j + 1))
            expect = fv[j] if j < len(fv) else 0
            if back != expect:
                r.fail(f"{name}: f/h round trip fails at {j}")
        for f in fields:
            bundle = face_vectors(c, f)
            b = bundle.betti
            if bundle.h_prime[d] != b.at(d - 1):
                r.fail(f"{name} over {f}: h'_d != top Betti")
            chi = sum((-1) ** i * b.at(i) for i in range(-1, c.dim + 1))
            if bundle.h[d] != (-1) ** (d - 1) * chi:
                r.fail(f"{name} over {f}: h_d != signed Euler characteristic")
            if bundle.h_double_prime[0] != 1:
                r.fail(f"{name} over {f}: h''_0 != 1")
            if bool(is_cohen_macaulay(c, f)) and bundle.h_prime != bundle.h:
                r.fail(f"{name} over {f}: CM but h' != h")
            idrep = deletion_identity_check(c, f)
            if idrep["h_identity"] != "pass":
                r.fail(f"{name} over {f}: h deletion identity: {idrep}")
            if idrep["h_prime_identity"] not in ("pass",) and \
                    not idrep["h_prime_identity"].startswith("skipped"):
                r.fail(f"{name} over {f}: h' deletion identity: {idrep}")
    return r


def check_flag_bounds(entries, fields, expect_equality=()) -> TheoremResult:
    """The bounds of `flag_bound_check` on every entry, with binomial
    equality on cross-polytopes."""
    r = TheoremResult("flag_lower_bounds", True)
    equality_seen = set()
    for name, c in entries:
        d = c.dim + 1
        for f in fields:
            rep = flag_bound_check(c, f)
            for bound in ("h_prime_binomial_bound", "h_double_binomial_bound",
                          "h_prime_betti_bound"):
                if rep[bound].startswith("fail"):
                    r.fail(f"{name} over {f}: {bound} {rep[bound]}")
            if rep["flag"] and rep["buchsbaum_star"]:
                hp = face_vectors(c, f).h_prime
                if all(hp[i] == comb(d, i) for i in range(d + 1)):
                    equality_seen.add(name)
    for name in expect_equality:
        if name not in equality_seen:
            r.fail(f"expected binomial equality for {name}")
    return r


def check_lower_bound_theorem(entries, fields) -> TheoremResult:
    """Stacked spheres meet their face-count formula exactly; Buchsbaum*
    complexes of dimension >= 2 satisfy the stacked lower bounds."""
    r = TheoremResult("stacked_sphere_lower_bounds", True)
    for n in range(4, 11):
        built = stacked_sphere(n, 3).f_vector()[1:]
        if tuple(built) != stacked_face_counts(n, 3):
            r.fail(f"stacked_sphere({n},3) counts {built} != formula")
    for n, d in [(5, 4), (7, 4), (10, 4)]:
        built = stacked_sphere(n, d).f_vector()[1:]
        if tuple(built) != stacked_face_counts(n, d):
            r.fail(f"stacked_sphere({n},{d}) counts {built} != formula")
    seen = set()
    for name, c, f in _buchsbaum_star_entries(entries, fields):
        if c.dim + 1 < 3 or name in seen:
            continue
        seen.add(name)
        rep = lbt_check(c, f)
        if rep["bounds"] != "pass":
            r.fail(f"{name}: {rep['bounds']}")
    return r


def check_rigidity_connectivity(entries, fields, seed=0) -> TheoremResult:
    """Graph connectivity lower bounds for Buchsbaum / Buchsbaum*
    complexes and generic rigidity of Buchsbaum* graphs."""
    r = TheoremResult("rigidity_and_connectivity", True)
    octa = graph_of(cross_polytope(3))
    if vertex_connectivity(octa) != 4:
        r.fail("octahedron graph connectivity != 4")
    if not is_generically_d_rigid(octa, 3, seed=seed):
        r.fail("octahedron graph not generically 3-rigid")
    gt = graph_of(torus7())
    if vertex_connectivity(gt) < 3:
        r.fail("torus7 graph connectivity < 3")
    if not is_generically_d_rigid(gt, 3, seed=seed):
        r.fail("torus7 graph not generically 3-rigid")
    for name, c in entries:
        g = graph_of(c)
        d = c.dim + 1
        k = None  # the connectivity of g, computed once when first needed
        rigid = None  # its rigidity verdicts over three seeds, likewise
        for f in fields:
            if betti_at(c, f, 0) != 0:
                break  # not connected, over every field
            if is_buchsbaum(c, f) and d - 1 >= 1 and g.n >= 2:
                k = vertex_connectivity(g) if k is None else k
                if k < d - 1 or g.n < d:
                    r.fail(f"{name} over {f}: connectivity {k} below {d - 1}")
            if is_buchsbaum_star(c, f) and g.n >= 2:
                k = vertex_connectivity(g) if k is None else k
                if k < d or g.n < d + 1:
                    r.fail(f"{name} over {f}: connectivity {k} below {d}")
                if d >= 3:
                    if rigid is None:
                        rigid = {is_generically_d_rigid(g, d, seed=s)
                                 for s in (seed, seed + 1, seed + 2)}
                    if rigid != {True}:
                        r.fail(f"{name}: rigidity verdicts unstable or false: "
                               f"{sorted(rigid)}")
    return r


def check_constructions(entries, fields) -> TheoremResult:
    """Products preserve Buchsbaum(*)ness, the join equivalence holds
    pointwise, and codimension-two skeleta of Buchsbaum complexes are
    Buchsbaum*."""
    r = TheoremResult("product_join_skeleton_constructions", True)
    c3 = simplex_boundary(2)
    p33 = product(c3, c3)
    if tuple(betti(p33, QQ).betti) != (0, 0, 2, 1):
        r.fail(f"cycle3 x cycle3 Betti {betti(p33, QQ).betti} != (0,0,2,1)")
    for f in (QQ, GF2):
        if not is_buchsbaum_star(p33, f):
            r.fail(f"cycle3 x cycle3 not Buchsbaum* over {f}")
    p3s = product(c3, simplex_boundary(3))
    if not is_buchsbaum_star(p3s, QQ):
        r.fail("cycle3 x simplex_boundary(3) not Buchsbaum* over q")
    bundle = face_vectors(p3s, QQ)
    if not m_vector_check(bundle.g[:3]):
        r.fail(f"cycle3 x simplex_boundary(3): (g0,g1,g2)={bundle.g[:3]} "
               f"fails the Macaulay growth test")
    # Buchsbaum products of Buchsbaum pairs
    pc = product(c3, path(3))
    ps = product(cross_polytope(1), c3)
    for f in fields:
        if not is_buchsbaum(pc, f):
            r.fail(f"cycle3 x path3 not Buchsbaum over {f}")
        if not is_buchsbaum_star(ps, f):
            r.fail(f"s0 x cycle3 not Buchsbaum* over {f}")
    # join equivalence grid
    grid = {"s0": cross_polytope(1), "cycle4": cross_polytope(2), "path3": path(3)}
    for na, a in grid.items():
        for nb, b in grid.items():
            j = join(a, b)
            for f in fields:
                x = bool(is_buchsbaum_star(j, f))
                y = is_m_cohen_macaulay(a, f, 2) and is_m_cohen_macaulay(b, f, 2)
                z = is_m_cohen_macaulay(j, f, 2)
                if not (x == y == z):
                    r.fail(f"join({na},{nb}) over {f}: equivalence broken "
                           f"({x},{y},{z})")
    # chi multiplicativity for products
    chi = lambda x: reduced_euler_characteristic(x) + 1
    for a, b in [(c3, c3), (c3, simplex_boundary(3)), (c3, path(3))]:
        pa = product(a, b)
        if chi(pa) != chi(a) * chi(b):
            r.fail("Euler characteristic not multiplicative on a product")
    # skeleta
    for name, c in entries:
        if c.dim < 1:
            continue
        for f in fields:
            if is_buchsbaum(c, f):
                skel = skeleton(c, c.dim - 1)
                if not is_buchsbaum_star(skel, f):
                    r.fail(f"{name} over {f}: codim-2 skeleton not Buchsbaum*")
    skel_cp4 = skeleton(cross_polytope(4), 2)
    for f in fields:
        if not is_m_buchsbaum_star(skel_cp4, f, 2):
            r.fail(f"2-skeleton of cross_polytope(4) not 2-Buchsbaum* over {f}")
    return r


def check_ear_verifier(entries, fields) -> TheoremResult:
    """The gluing verifier on a passing one-piece decomposition, a passing
    two-piece one, and the deliberately broken attachment."""
    r = TheoremResult("ear_gluing_verifier", True)
    t = torus7()
    rep = verify_ear_decomposition(t, EarDecomposition((t,)), QQ)
    if not (rep.union_ok and rep.base_ok and rep.hypotheses_ok
            and rep.ambient_buchsbaum_star and rep.consistent):
        r.fail(f"one-piece torus case failed: {rep.to_jsonable()}")

    ambient = example_2_10_iii()
    tri = next(fc for fc in ambient.faces(2)
               if not t.is_face(tuple(ambient.labels[v] for v in fc)))
    piece1 = from_facets([t.facets[i] for i in range(len(t.facets))])
    piece2 = from_facets([tuple(ambient.labels[v] for v in tri)])
    rep2 = verify_ear_decomposition(ambient, EarDecomposition((piece1, piece2)), QQ)
    ear = rep2.ears[0]
    if rep2.hypotheses_ok:
        r.fail("broken attachment was not detected")
    if not (rep2.union_ok and rep2.base_ok and ear["manifold_with_boundary"]
            and ear["boundary_ok"] and ear["boundary_matches_intersection"]):
        r.fail(f"wrong condition flagged: {rep2.to_jsonable()}")
    if ear["attachment_null_homologous_top"] or not ear["attachment_null_homologous_below"]:
        r.fail("expected exactly the top attachment condition to fail")
    if not ear.get("attachment_null_homologous_top_witness"):
        r.fail("no witness cycle reported")

    octa = cross_polytope(3)
    memb = next(c for n, c in corpus() if n == "octahedron_with_membrane")
    base = from_facets([tuple(memb.labels[v] for v in fc) for fc in memb.facets
                        if all(memb.labels[v] != "z" for v in fc)])
    disc = from_facets([tuple(memb.labels[v] for v in fc) for fc in memb.facets
                        if any(memb.labels[v] == "z" for v in fc)])
    rep3 = verify_ear_decomposition(memb, EarDecomposition((base, disc)), QQ)
    if not (rep3.hypotheses_ok and rep3.ambient_buchsbaum_star and rep3.consistent):
        r.fail(f"two-piece membrane case failed: {rep3.to_jsonable()}")
    return r


def check_m_hierarchy(entries, fields) -> TheoremResult:
    """On the octahedron (a CM complex), m-Buchsbaum* coincides with
    (m+1)-Cohen-Macaulay for m in 0..2.  The two sides are not
    independent: (m+1)-CM sweeps the doubly CM criterion, which reads the
    Buchsbaum* decider, at its leaves, as m-Buchsbaum* does.  The
    independent comparison is `m_fold_by_rebuild` in the tests."""
    r = TheoremResult("m_hierarchy_cross_polytope", True)
    c = cross_polytope(3)
    for f in fields:
        for m in (0, 1, 2):
            a = is_m_buchsbaum_star(c, f, m)
            b = is_m_cohen_macaulay(c, f, m + 1)
            if a != b:
                r.fail(f"m={m} over {f}: m-Buchsbaum*={a} but (m+1)-CM={b}")
    return r


def check_component_locality(entries, fields) -> TheoremResult:
    """For dimension >= 1, Buchsbaum*ness is equivalent to every connected
    component being Buchsbaum* of the same dimension."""
    r = TheoremResult("component_locality", True)
    for name, c in entries:
        if c.dim < 1:
            continue
        comps = components(c)
        for f in fields:
            whole = bool(is_buchsbaum_star(c, f))
            parts = all(comp.dim == c.dim and bool(is_buchsbaum_star(comp, f))
                        for comp in comps)
            if whole != parts:
                r.fail(f"{name} over {f}: whole={whole} components={parts}")
    return r


def check_graph_characterization(entries, fields) -> TheoremResult:
    """One-dimensional complexes are Buchsbaum* iff every component is a
    2-connected graph."""
    r = TheoremResult("one_dimensional_graph_characterization", True)
    for name, c in entries:
        if c.dim != 1:
            continue
        comps = components(c)
        two_connected = all(
            comp.n_vertices >= 3 and vertex_connectivity(graph_of(comp)) >= 2
            for comp in comps)
        for f in fields:
            if bool(is_buchsbaum_star(c, f)) != two_connected:
                r.fail(f"{name} over {f}: Buchsbaum* != 2-connected components")
    return r


def check_kunneth_join(entries, fields) -> TheoremResult:
    """Betti numbers of joins obey the field Kuenneth formula."""
    r = TheoremResult("join_kunneth", True)
    pairs = [(cross_polytope(1), cross_polytope(1)),
             (cross_polytope(1), simplex_boundary(2)),
             (simplex_boundary(2), simplex_boundary(2)),
             (path(3), simplex_boundary(2)),
             (example_2_10_i(), cross_polytope(1))]
    for a, b in pairs:
        j = join(a, b)
        for f in fields:
            ba, bb, bj = betti(a, f), betti(b, f), betti(j, f)
            for i in range(-1, j.dim + 1):
                expect = sum(ba.at(k) * bb.at(i - k - 1) for k in range(-1, i + 1))
                if bj.at(i) != expect:
                    r.fail(f"join Kuenneth fails in degree {i} over {f}")
    return r


def check_excision(entries, fields) -> TheoremResult:
    """For Buchsbaum complexes, the pair (complex, facet contrastar) has
    one top relative homology class and nothing below."""
    r = TheoremResult("facet_excision", True)
    for name, c in entries:
        d = c.dim
        pairs = None  # each facet contrastar's faces in c, embedded once
        for f in fields:
            if not is_buchsbaum(c, f):
                continue
            if pairs is None:
                pairs = [_embedded_face_set(contrastar(c, fc), c) for fc in c.faces(d)[:4]]
            for excluded in pairs:
                def outside(m, excluded=excluded):
                    return m not in excluded
                if _kept_betti(c, outside, f, d) != 1:
                    r.fail(f"{name} over {f}: facet pair top homology != 1")
                for i in range(0, d):
                    if _kept_betti(c, outside, f, i) != 0:
                        r.fail(f"{name} over {f}: facet pair has homology in {i}")
    return r


def check_facet_shortcut_probe(entries, fields) -> TheoremResult:
    """Record (never fail) whether checking only facet contrastars would
    have sufficed for the Buchsbaum* decision on this corpus; on a
    Buchsbaum complex a facet contrastar keeps β_{d-1} exactly when H_d
    projects onto the star of the facet (`top_projection_surjective`)."""
    r = TheoremResult("facet_contrastar_shortcut_probe", True)
    disagreements = []
    for name, c in entries:
        for f in fields:
            if not is_buchsbaum(c, f):
                continue
            full = bool(is_buchsbaum_star(c, f))
            facet_only = all(top_projection_surjective(c, fc, f)
                             for fc in c.faces(c.dim))
            if full != facet_only:
                disagreements.append(f"{name} over {f}")
    if disagreements:
        r.note("facet-only shortcut is NOT sound; differs on: "
               + ", ".join(disagreements))
    else:
        r.note("facet-only shortcut agreed on this corpus (still not assumed)")
    return r


def check_conjecture_probes(entries, fields) -> TheoremResult:
    """Empirical probes; also asserts the h'' palindrome on orientable
    closed manifolds in the corpus (a known consequence, not a proof)."""
    r = TheoremResult("conjecture_probes", True)
    probed = 0
    for name, c in entries:
        if not c.is_pure:
            continue
        for f in fields:
            rep = conjecture_probe(c, f)
            if rep.get("status") == "probed":
                probed += 1
            if rep.get("g2_m_vector") is False:
                # for connected Buchsbaum* complexes of dimension >= 3 this
                # is a theorem, so a failure here is a bug
                r.fail(f"{name} over {f}: (g0,g1,g2) fails the growth bound")
            man = is_homology_manifold(c, f)
            if man.manifold and man.closed and man.orientable and c.dim >= 1:
                if not rep.get("h_double_symmetric", True):
                    r.fail(f"{name} over {f}: h'' not palindromic on an "
                           f"orientable closed manifold")
    r.note(f"{probed} probe runs (empirical only)")
    return r


def check_skeleton_hierarchy(entries, fields) -> TheoremResult:
    """Skeleta gain one Buchsbaum* connectivity level per dropped
    dimension, spot-checked at small parameters."""
    r = TheoremResult("skeleton_hierarchy", True)
    octa = cross_polytope(3)
    for f in fields:
        # octahedron is 1-Buchsbaum*; its 1-skeleton should be 2-Buchsbaum*
        if not is_m_buchsbaum_star(skeleton(octa, 1), f, 2):
            r.fail(f"octahedron 1-skeleton not 2-Buchsbaum* over {f}")
        if not is_m_buchsbaum_star(skeleton(simplex_boundary(3), 1), f, 2):
            r.fail(f"sphere 1-skeleton not 2-Buchsbaum* over {f}")
    return r


# Checks that compare against expected verdicts of named complexes.
BUILTIN_ONLY = {check_counterexample_fidelity, check_orientability_dichotomy,
                check_ear_verifier, check_m_hierarchy, check_skeleton_hierarchy}

ALL_CHECKS = [
    check_counterexample_fidelity,
    check_orientability_dichotomy,
    check_cm_collapse,
    check_buchsbaum_star_implications,
    check_surjectivity_oracle,
    check_vector_identities,
    check_flag_bounds,
    check_lower_bound_theorem,
    check_rigidity_connectivity,
    check_constructions,
    check_ear_verifier,
    check_m_hierarchy,
    check_component_locality,
    check_graph_characterization,
    check_kunneth_join,
    check_excision,
    check_facet_shortcut_probe,
    check_conjecture_probes,
    check_skeleton_hierarchy,
]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _claim(calls, queue: int) -> dict[int, TheoremResult]:
    """Run the check of each index read from the queue pipe, one byte at a
    time, until the queue is empty.  A check that raises is left out: the
    parent runs it again, in check order, and so raises as a loop would."""
    done = {}
    while index := os.read(queue, 1):
        try:
            done[index[0]] = calls[index[0]]()
        except Exception:
            pass
    return done


def _pooled(calls) -> dict[int, TheoremResult]:
    """Run `calls` on a fork pool of one worker per usable CPU, the parent
    included, and return the result of each call that returned, by index.
    Every worker claims the next index from one shared pipe.  The pool is
    skipped, and nothing is returned, on one CPU, without `os.fork`, or in
    a process with threads, which forking is unsafe in."""
    threading = sys.modules.get("threading")
    workers = min(_usable_cpus(), len(calls))
    if workers < 2 or not hasattr(os, "fork") or \
            (threading is not None and threading.active_count() > 1):
        return {}
    assert len(calls) <= 256, "the queue holds check indices as single bytes"
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(calls))))
    os.close(feed)
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> its result pipe, until reaped
    try:
        for _ in range(workers - 1):
            out, into = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the parent's share grows instead
                os.close(out)
                os.close(into)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(out)
                    with open(into, "wb") as fh:
                        marshal.dump({i: (res.name, res.passed, res.details)
                                      for i, res in _claim(calls, queue).items()}, fh)
                    status = 0
                finally:
                    os._exit(status)
            os.close(into)
            children[pid] = open(out, "rb")
        done = _claim(calls, queue)
        for pid, fh in list(children.items()):
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                for i, (name, passed, details) in marshal.loads(data).items():
                    done[i] = TheoremResult(name, passed)
                    done[i].details = details
        return done
    finally:
        os.close(queue)
        if children:  # an error path: stop and reap every worker left
            import signal  # loaded here only: `verify` pays for each import

            for pid, fh in children.items():
                fh.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_battery(entries=None, fields=DEFAULT_FIELDS, seed=0) -> list[TheoremResult]:
    """Run every applicable check; `entries` defaults to the built-in corpus.

    Checks that compare against expected verdicts of specific named
    complexes (`BUILTIN_ONLY`) are skipped for any other corpus.  The
    checks run on every usable CPU (`_pooled`); a check that no worker
    finished runs here afterwards, in check order, so the results and the
    first exception are those of one loop over `ALL_CHECKS`.
    """
    builtin = entries is None
    if builtin:
        entries = list(corpus())
    entries = list(entries)
    fields = tuple(fields)

    def plain(chk):
        # the benchmark's tracer wraps the checks with functools.wraps, in
        # ALL_CHECKS and under their names in this module
        return getattr(chk, "__wrapped__", chk)

    arguments = {
        plain(check_cm_collapse): {"minimum_slice": 12 if builtin else 0},
        plain(check_flag_bounds): {"expect_equality": ("cycle4", "cross_polytope3",
                                                       "cross_polytope4") if builtin else ()},
        plain(check_rigidity_connectivity): {"seed": seed},
    }
    calls = [partial(chk, entries, fields, **arguments.get(plain(chk), {}))
             for chk in ALL_CHECKS if builtin or plain(chk) not in BUILTIN_ONLY]
    done = _pooled(calls)
    return [done[i] if i in done else call() for i, call in enumerate(calls)]
