"""Face-count vectors (f, h, h', h'', g) and the numeric checks on them.

The h-vector is the usual binomial transform of the f-vector.  The
h'-vector corrects it by an alternating sum of reduced Betti numbers and
the h''-vector subtracts one further Betti term per entry; both therefore
depend on the coefficient field.  The g-type vectors are first
differences, recorded up to floor(d/2).
"""

from __future__ import annotations

from math import comb

from .complexes import Complex, is_flag, link, deletion
from .homology import BettiTable, _embedded_face_set, betti
from .linalg import FieldSpec
from .properties import is_buchsbaum, is_buchsbaum_star, is_m_cohen_macaulay

__all__ = [
    "FaceVectorBundle",
    "face_vectors",
    "h_vector",
    "deletion_identity_check",
    "flag_bound_check",
    "lbt_check",
    "stacked_face_counts",
    "m_vector_check",
    "macaulay_bound",
    "monotonicity_check",
    "conjecture_probe",
]


def h_vector(c: Complex, d: int | None = None) -> tuple[int, ...]:
    """h-vector computed with d entries past index 0 (defaults to dim+1).

    Passing an ambient d larger than dim+1 pads the face counts with
    zeros; the deletion/link identities below need that form.
    """
    if d is None:
        d = c.dim + 1
    if d < c.dim + 1:
        raise ValueError("d must be at least dim+1")
    f = list(c.f_vector()) + [0] * (d + 1 - len(c.f_vector()))
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, d - j) * f[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def _h_prime(h: tuple[int, ...], b: BettiTable, d: int) -> tuple[int, ...]:
    return tuple(
        h[j] + comb(d, j) * sum((-1) ** (j - i - 1) * b.at(i - 1) for i in range(j))
        for j in range(d + 1)
    )


def _h_double(hp: tuple[int, ...], b: BettiTable, d: int) -> tuple[int, ...]:
    out = [hp[i] - comb(d, i) * b.at(i - 1) for i in range(d)]
    out.append(b.at(d - 1))
    return tuple(out)


def _g_of(h: tuple[int, ...], d: int) -> tuple[int, ...]:
    return tuple([1] + [h[i] - h[i - 1] for i in range(1, d // 2 + 1)])


class FaceVectorBundle:
    """The face vectors of one complex over one field, with its Betti table."""

    __slots__ = ("field", "f", "h", "h_prime", "h_double_prime", "g", "g_prime",
                 "g_double_prime", "betti")

    def __init__(self, field: FieldSpec, f: tuple[int, ...], h: tuple[int, ...],
                 h_prime: tuple[int, ...], h_double_prime: tuple[int, ...],
                 g: tuple[int, ...], g_prime: tuple[int, ...],
                 g_double_prime: tuple[int, ...], betti: BettiTable):
        self.field = field
        self.f = f
        self.h = h
        self.h_prime = h_prime
        self.h_double_prime = h_double_prime
        self.g = g
        self.g_prime = g_prime
        self.g_double_prime = g_double_prime
        self.betti = betti

    def to_jsonable(self) -> dict:
        return {
            "field": str(self.field),
            "f": list(self.f),
            "h": list(self.h),
            "h_prime": list(self.h_prime),
            "h_double_prime": list(self.h_double_prime),
            "g": list(self.g),
            "g_prime": list(self.g_prime),
            "g_double_prime": list(self.g_double_prime),
            "betti": list(self.betti.betti),
        }


def face_vectors(c: Complex, field: FieldSpec) -> FaceVectorBundle:
    d = c.dim + 1
    b = betti(c, field)
    h = h_vector(c)
    hp = _h_prime(h, b, d)
    hpp = _h_double(hp, b, d)
    return FaceVectorBundle(
        field=field,
        f=c.f_vector(),
        h=h,
        h_prime=hp,
        h_double_prime=hpp,
        g=_g_of(h, d),
        g_prime=_g_of(hp, d),
        g_double_prime=_g_of(hpp, d),
        betti=b,
    )


def deletion_identity_check(c: Complex, field: FieldSpec) -> dict:
    """Check, for every vertex v, the two identities
    h_j(c) = h_j(c minus v) + h_{j-1}(link v)            (unconditional)
    h'_j(c) = h'_j(c minus v) + h_{j-1}(link v)          (Buchsbaum* c)
    where the deletion h-vector is taken with the ambient d."""
    d = c.dim + 1
    h_c = h_vector(c)
    bstar = bool(is_buchsbaum_star(c, field))
    hp_c = _h_prime(h_c, betti(c, field), d) if bstar else None
    result = {"h_identity": "pass", "h_prime_identity": "pass" if bstar
              else "skipped: not Buchsbaum* over " + str(field),
              "first_violation": None}
    for v in range(c.n_vertices):
        rest = deletion(c, [v])
        h_rest = h_vector(rest, d)
        h_lk = (0, *h_vector(link(c, [v]), d - 1))  # h_{j-1}(link v) at j
        checks = [("h", h_c, h_rest)]
        if bstar:
            checks.append(("h_prime", hp_c, _h_prime(h_rest, betti(rest, field), d)))
        for name, whole, part in checks:
            for j in range(d + 1):
                if whole[j] != part[j] + h_lk[j]:
                    result[name + "_identity"] = "fail"
                    result["first_violation"] = {"identity": name, "vertex": str(c.labels[v]),
                                                 "j": j, "lhs": whole[j], "rhs": part[j] + h_lk[j]}
                    return result
    return result


def flag_bound_check(c: Complex, field: FieldSpec) -> dict:
    """Binomial lower bounds for h' and h'' of flag Buchsbaum* complexes,
    plus the Betti-weighted h' bound that holds for all Buchsbaum ones."""
    d = c.dim + 1
    bundle = face_vectors(c, field)
    flag = is_flag(c)
    bstar = bool(is_buchsbaum_star(c, field))
    buchs = bool(is_buchsbaum(c, field))
    report = {"flag": flag, "buchsbaum_star": bstar, "buchsbaum": buchs}
    if flag and bstar:
        bad = [i for i in range(d + 1) if bundle.h_prime[i] < comb(d, i)]
        report["h_prime_binomial_bound"] = "pass" if not bad else f"fail at i={bad[0]}"
        bad2 = [i for i in range(d - 1) if bundle.h_double_prime[i] < comb(d, i)]
        report["h_double_binomial_bound"] = "pass" if not bad2 else f"fail at i={bad2[0]}"
    else:
        report["h_prime_binomial_bound"] = "skipped: needs flag and Buchsbaum*"
        report["h_double_binomial_bound"] = "skipped: needs flag and Buchsbaum*"
    if buchs:
        b = bundle.betti
        bad3 = [i for i in range(d + 1)
                if bundle.h_prime[i] < comb(d, i) * b.at(i - 1)]
        report["h_prime_betti_bound"] = "pass" if not bad3 else f"fail at i={bad3[0]}"
    else:
        report["h_prime_betti_bound"] = "skipped: needs Buchsbaum"
    return report


def stacked_face_counts(n: int, d: int) -> tuple[int, ...]:
    """(f_0,...,f_{d-1}) of a stacked (d-1)-sphere on n vertices."""
    if d < 2 or n < d + 1:
        raise ValueError("need d >= 2 and n >= d+1")
    out = [comb(d, i) * n - comb(d + 1, i + 1) * i for i in range(d - 1)]
    out.append((d - 1) * n - (d + 1) * (d - 2))
    return tuple(out)


def lbt_check(c: Complex, field: FieldSpec) -> dict:
    """Face counts against the stacked-sphere lower bounds (needs d >= 3)."""
    d = c.dim + 1
    if d < 3:
        raise ValueError("lower bound check needs dimension at least 2")
    n = c.n_vertices
    bounds = stacked_face_counts(n, d)
    f = c.f_vector()
    bad = [i for i in range(d) if f[i + 1] < bounds[i]]
    return {
        "buchsbaum_star": bool(is_buchsbaum_star(c, field)),
        "stacked_counts": list(bounds),
        "bounds": "pass" if not bad else f"fail at i={bad[0]}",
    }


def _binomial_representation(a: int, i: int) -> list[tuple[int, int]]:
    """Greedy representation a = C(n_i,i) + C(n_{i-1},i-1) + ... (unique)."""
    rep = []
    while a > 0 and i >= 1:
        n = i
        while comb(n + 1, i) <= a:
            n += 1
        rep.append((n, i))
        a -= comb(n, i)
        i -= 1
    return rep


def macaulay_bound(a: int, i: int) -> int:
    """Largest value allowed in degree i+1 after a in degree i."""
    return sum(comb(n + 1, k + 1) for n, k in _binomial_representation(a, i))


def m_vector_check(seq) -> bool:
    """Macaulay growth test: could `seq` be the Hilbert function of a
    standard graded algebra?"""
    seq = list(seq)
    if not seq or seq[0] != 1:
        return False
    if any((not isinstance(x, int)) or x < 0 for x in seq):
        return False
    for i in range(1, len(seq) - 1):
        if seq[i] == 0:
            if any(x != 0 for x in seq[i + 1:]):
                return False
            break
        if seq[i + 1] > macaulay_bound(seq[i], i):
            return False
    return True


def monotonicity_check(c: Complex, sub: Complex, field: FieldSpec) -> dict:
    """h'-monotonicity for a subcomplex whose vertex sets of size e+1 are
    never faces of the ambient complex (e-1 = dim of the subcomplex)."""
    sub_vertices = 0  # the vertex mask of sub in c; embedding validates the inclusion
    for m in _embedded_face_set(sub, c):
        sub_vertices |= m
    e = sub.dim + 1
    d = c.dim + 1
    # a vertex set of size e+1 is a face iff some e-face lies in the mask
    if e < d and any(m & sub_vertices == m for m in c.face_masks(e)):
        return {"hypothesis": "fails: a vertex set of size e+1 is a face",
                "inequality": None}
    if not is_buchsbaum(sub, field) or not is_buchsbaum(c, field):
        return {"hypothesis": "fails: both complexes must be Buchsbaum",
                "inequality": None}
    hp_sub = _h_prime(h_vector(sub), betti(sub, field), e)
    hp_c = _h_prime(h_vector(c), betti(c, field), d)
    padded = list(hp_sub) + [0] * (d + 1 - len(hp_sub))
    bad = [i for i in range(d + 1) if padded[i] > hp_c[i]]
    return {"hypothesis": "ok",
            "inequality": "pass" if not bad else f"fail at i={bad[0]}"}


def conjecture_probe(c: Complex, field: FieldSpec) -> dict:
    """Empirical per-complex report on the open h''/g questions.

    This records observations only; a passing probe proves nothing.
    """
    d = c.dim + 1
    bundle = face_vectors(c, field)
    bstar = bool(is_buchsbaum_star(c, field))
    report: dict = {"note": "empirical probe only, not a proof",
                    "buchsbaum_star": bstar}
    if not bstar:
        report["status"] = "skipped: not Buchsbaum* over " + str(field)
        return report
    report["status"] = "probed"
    hpp = bundle.h_double_prime
    report["h_double_symmetric"] = all(
        hpp[i] == hpp[d - i] for i in range(1, d))
    report["h_double_lower_half_leq"] = all(
        hpp[i] <= hpp[d - i] for i in range(0, d // 2 + 1))
    report["g_double_m_vector"] = m_vector_check(bundle.g_double_prime)
    if bundle.betti.at(0) == 0 and d >= 4:  # connected
        report["g2_m_vector"] = m_vector_check(bundle.g[:3])
    if is_m_cohen_macaulay(c, field, 2):
        h = bundle.h
        report["h_lower_half_leq"] = all(
            h[i] <= h[d - i] for i in range(0, d // 2 + 1))
        report["g_m_vector"] = m_vector_check(bundle.g)
    return report
