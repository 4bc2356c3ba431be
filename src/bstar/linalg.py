"""Exact linear algebra over the rationals and prime fields.

Every routine here runs on one elimination loop, ``_reduce``: the
left-to-right column reduction of persistent homology
(Edelsbrunner-Letscher-Zomorodian 2002).  Each column in turn is reduced
against the earlier columns until its pivot, its last nonzero row, is the
pivot of no earlier column, or until it is zero.  The rank is the number
of nonzero columns.  A column that reduces to zero is free, and the
record of the column operations that zeroed it is a kernel vector.  The
free columns are exactly the non-pivot columns of the reduced row echelon
form, and each kernel vector is scaled to 1 at its own free column (so it
is 0 at the other free columns): the kernel basis is the one read off
that form.  Pivots are fixed by position, never chosen by magnitude; the
arithmetic is exact, so only reproducibility matters.

Column format.  A sparse matrix is a list of columns plus its row count
``nrows``; a column is a dict ``{row: entry}`` of its nonzero entries,
rows numbered from 0.  Over the rationals the entries are ints or
``Fraction``s: the loop clears each column's denominators and then works
fraction-free on integers, dividing every combined column by the gcd of
its entries.  Over GF(p) the entries are ints, taken mod p, or
``Fraction``s, a/b taken as a times the inverse of b mod p (a ValueError
if p divides b).
``sparse_pivots``, ``sparse_rank``, ``sparse_nullspace`` and
``sparse_in_span`` take this format; they are the one entry point per
operation.

Pivot rows and clearing.  ``sparse_pivots`` gives the pivot rows of the
reduced columns; the rank is their number.  They serve the clearing
lemma of persistent homology (Chen-Kerber 2011).  Let d' and d be maps
with d d' = 0, where the row order of d' is the column order of d, and
reduce d' left to right, the pivot being the last nonzero row.  A pivot
row r then ends a reduced column of d', a combination of columns of d',
which d maps to zero: a nonzero multiple of column r of d plus earlier
columns of d.  So column r of d reduces to zero, and d has the rank of
its columns that are not pivot rows of d', over every field.

``_reduce`` refuses a matrix of more than ``set_max_cells`` rows x
columns, counting the matrix it is handed (for a cleared boundary map,
the columns that are left), and ``sparse_nullspace`` checks each kernel
vector against the matrix before returning it.
"""

from __future__ import annotations

from math import gcd, lcm

__all__ = [
    "FieldSpec",
    "QQ",
    "GF2",
    "DEFAULT_FIELDS",
    "LinalgGuardError",
    "is_prime",
    "sparse_pivots",
    "sparse_rank",
    "sparse_nullspace",
    "sparse_in_span",
]

# Elimination refuses matrices with more cells than this (see set_max_cells).
DEFAULT_MAX_CELLS = 1 << 24
_max_cells = DEFAULT_MAX_CELLS


class LinalgGuardError(RuntimeError):
    """Raised when a matrix exceeds the configured size guard."""


def set_max_cells(n: int) -> None:
    global _max_cells
    _max_cells = int(n)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Coefficient field: the rationals (``p is None``) or GF(p).

    Equal fields are equal values, ``FieldSpec(2) == GF2``.  Every memo
    lookup hashes one, so the hash is computed once, here."""

    __slots__ = ("p", "_hash")

    def __init__(self, p: int | None = None):
        if p is not None:
            if not (2 <= p < 2**31):
                raise ValueError(f"field characteristic out of range: {p}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p
        self._hash = hash(p)

    def __eq__(self, other):
        if other.__class__ is not FieldSpec:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse a field selector: "q" for the rationals, "gf:p" for GF(p)."""
        t = text.strip().lower()
        if t in ("q", "qq", "rational", "rationals"):
            return cls()
        if t.startswith("gf:"):
            return cls(int(t[3:]))
        if t.startswith("gf") and t[2:].isdigit():
            return cls(int(t[2:]))
        raise ValueError(f"unknown field selector: {text!r}")

    def __str__(self) -> str:
        return "q" if self.p is None else f"gf:{self.p}"


QQ = FieldSpec()
GF2 = FieldSpec(2)
DEFAULT_FIELDS = (QQ, GF2)  # for the CLI and `run_battery` when no field is given


def _check_cells(nrows: int, ncols: int) -> None:
    if nrows * ncols > _max_cells:
        raise LinalgGuardError(
            f"matrix has {nrows}x{ncols} cells, above the guard of {_max_cells}"
        )


def _residue(x, p: int) -> int:
    """x mod p; a Fraction a/b is a times the inverse of b."""
    if type(x) is int:  # the common case, without the import and ABC check below
        return x % p
    from fractions import Fraction

    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValueError(f"{x} has no residue mod {p}")
        return x.numerator * pow(x.denominator, -1, p) % p
    return int(x) % p


def _reduce(columns, nrows: int, p: int | None, record: bool = False):
    """The elimination loop (see the module docstring), over GF(p) or,
    for ``p is None``, over the rationals.

    Returns the pivot rows, in the order of their columns, and the free
    columns as (index, leftover) pairs.
    With `record` every column carries its operations as entries at
    negative rows, row ~k holding the coefficient of column k, so the
    leftover of a free column is its kernel vector before scaling.
    """
    _check_cells(nrows, len(columns))
    pivots: dict[int, dict[int, int]] = {}
    free = []
    for j, entries in enumerate(columns):
        scale = 1
        if p is None:
            # Clearing the denominators scales column j, so its record
            # starts at that scale and stays relative to the given column.
            for x in entries.values():
                if type(x) is not int:  # a Fraction; an int subclass has denominator 1
                    scale = lcm(scale, x.denominator)
            col = {i: int(x * scale) for i, x in entries.items() if x}
        else:
            col = {i: y for i, x in entries.items() if (y := _residue(x, p))}
        if record:
            col[~j] = scale
        while True:
            low = max(col, default=-1)
            if low < 0:
                free.append((j, col))
                break
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            col = _eliminate(col, other, low, p)
    return list(pivots), free


def _eliminate(col: dict, other: dict, low: int, p: int | None) -> dict:
    """`col` minus the multiple of `other` that clears row `low`.  Over the
    rationals `col` is first scaled to keep the result integral, and the
    result is divided by the gcd of its entries."""
    a, b = col[low], other[low]
    if p is None:
        g = gcd(a, b)
        s, t = b // g, a // g
        if s < 0:
            s, t = -s, -t
        if s != 1:
            col = {k: s * x for k, x in col.items()}
    else:
        t = a * pow(b, -1, p) % p
    for k, x in other.items():
        y = col.get(k, 0) - t * x
        if p is not None:
            y %= p
        if y:
            col[k] = y
        else:
            del col[k]
    if p is None:
        content = gcd(*col.values())
        if content > 1:
            col = {k: x // content for k, x in col.items()}
    return col


def sparse_pivots(columns, nrows: int, field: FieldSpec) -> list[int]:
    """The pivot rows over `field` of a sparse matrix (see the column
    format and the clearing lemma), in the order of their columns."""
    return _reduce(columns, nrows, field.p)[0]


def sparse_rank(columns, nrows: int, field: FieldSpec) -> int:
    """Exact rank over `field` of a sparse matrix (see the column format)."""
    return len(_reduce(columns, nrows, field.p)[0])


def sparse_nullspace(columns, nrows: int, field: FieldSpec) -> list[dict]:
    """Basis of the right kernel of a sparse matrix over `field`, one
    {column: coefficient} dict per free column, 1 at that column and 0 at
    the other free columns.  Coefficients are ``Fraction``s over the
    rationals and residues over GF(p).  Each is checked to annihilate
    `columns`."""
    p = field.p
    if p is None:
        from fractions import Fraction
    basis = []
    for j, rec in _reduce(columns, nrows, p, record=True)[1]:
        image: dict[int, int] = {}
        for k, x in rec.items():
            for i, a in columns[~k].items():
                image[i] = image.get(i, 0) + x * a
        if any(s if p is None else _residue(s, p) for s in image.values()):
            raise AssertionError("nullspace vector fails verification")
        lead = rec[~j]
        if p is None:
            basis.append({~k: Fraction(x, lead) for k, x in sorted(rec.items(), reverse=True)})
        else:
            inv = pow(lead, -1, p)
            basis.append({~k: x * inv % p for k, x in sorted(rec.items(), reverse=True)})
    return basis


def sparse_in_span(columns, nrows: int, vector: dict, field: FieldSpec) -> bool:
    """True iff the sparse column `vector` is a linear combination of `columns`."""
    free = _reduce([*columns, vector], nrows, field.p)[1]
    return bool(free) and free[-1][0] == len(columns)
