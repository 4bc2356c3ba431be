"""Exact linear algebra over the rationals and prime fields.

Every routine here runs on one elimination loop, ``_reduce``: the
left-to-right column reduction of persistent homology
(Edelsbrunner-Letscher-Zomorodian 2002).  Each column in turn is reduced
against the earlier columns until its pivot, its last nonzero row, is the
pivot of no earlier column, or until it is zero.  The rank is the number
of nonzero columns.  A column that reduces to zero is free, and the
record of the column operations that zeroed it is a kernel vector.  The
free columns are exactly the non-pivot columns of the reduced row echelon
form, and ``sparse_nullspace`` scales each kernel vector to 1 at its own
free column (so it is 0 at the other free columns): the kernel basis is
the one read off that form.  Pivots are fixed by position, never chosen
by magnitude; the arithmetic is exact, so only reproducibility matters.

Two column formats.  A sparse matrix is a list of columns plus its row
count ``nrows``, rows numbered from 0.  A column is either a dict
``{row: entry}`` of its nonzero entries or a signed pair ``(plus,
minus)`` of int bit-vectors with no bit in common: the entry at row i
is 1 if bit i of ``plus`` is set, -1 if bit i of ``minus`` is, else 0.
The pair is the sign pattern of a simplicial boundary, and `homology`
builds every boundary map as pairs.  Dict entries over the rationals
are ints or ``Fraction``s; over GF(p) they are ints, taken mod p, or
``Fraction``s, a/b taken as a times the inverse of b mod p (a
ValueError if p divides b), through ``_residue``.  ``sparse_pivots``,
``sparse_rank``, ``sparse_nullspace`` and ``sparse_in_span`` take
either format; they are the one entry point per operation.

Two kernels, behind ``_reduce``:

- Bits (``_reduce_signed``), for every matrix over GF(2), a dict
  column read as the pair (its odd rows, 0), and every matrix of pairs
  over GF(3) and the rationals.  The pivot is the highest bit of
  ``plus | minus`` and the record is a pair too.  Over GF(2) a column
  is one bit-vector, ``plus | minus``, and columns combine by XOR.
  Over GF(3) and the rationals they combine by AND, OR and AND-NOT of
  their bit-vectors.  Over GF(3) a sum stays in {-1, 0, 1}, as
  1 + 1 = -1.  Over the rationals it can reach 2 or -2; the kernel then
  hands the whole matrix to the dict kernel.
- Dicts (``_reduce_dict``), for everything else: the rationals and
  GF(3) on a matrix with a dict column, and GF(p) for p >= 5 on either
  format.  A column is a dict, a pair read as its dict, and the record
  sits at negative rows.  Over the rationals the loop clears each
  column's denominators (a column of ints is copied as it is) and then
  works fraction-free on integers, dividing every combined column by
  the gcd of its entries (``_eliminate``).

Both kernels give the same pivots, in the same column order, and the
same records.  While all entries stay in {-1, 0, 1}, the fraction-free
step adds or subtracts the pivot column and divides by a gcd of 1,
which is the signed kernel's step.  ``_kernel`` hands the records to
internal callers unscaled, each checked to annihilate its columns: over
the rationals they are integral, so a caller that projects or tests a
span with them never makes a ``Fraction``.

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
the columns that are left; with ``stop``, the first ``stop`` + 1), on
both kernels, and ``_kernel`` checks each kernel vector against the matrix before returning it.
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


def _reduce(columns, nrows: int, p: int | None, record: bool = False,
            stop: int | None = None):
    """The elimination loop (see the module docstring), over GF(p) or,
    for ``p is None``, over the rationals, on the kernel for the field and
    the column format.

    Returns the pivot rows, in the order of their columns, and the free
    columns as (index, record) pairs.  With `record` the record of a free
    column maps each column k to its coefficient in the combination that
    reduced it to zero, a kernel vector before scaling; without, it is
    None.  With `stop` the loop returns at the first column from index
    `stop` on that keeps a pivot: only columns up to it hold a pivot, so
    the guard counts `stop` + 1 columns.  The columns are read in order,
    each when the loop gets to it, so they may be any sized iterable that
    can be read more than once.
    """
    _check_cells(nrows, len(columns) if stop is None else min(len(columns), stop + 1))
    if p == 2:  # a dict column as the pair of its odd rows, made when the loop reads it
        return _reduce_signed((col if type(col) is tuple
                               else (sum(1 << i for i, x in col.items() if _residue(x, 2)), 0)
                               for col in columns), 2, record,
                              len(columns) if stop is None else stop)
    if p not in (None, 3) or not all(type(col) is tuple for col in columns):
        return _reduce_dict(columns, p, record, stop)
    reduced = _reduce_signed(columns, p, record, stop)
    return _reduce_dict(columns, p, record, stop) if reduced is None else reduced


def _reduce_signed(columns, p: int | None, record: bool, stop: int | None = None):
    """`_reduce` over GF(2), GF(3) or the rationals on (plus, minus)
    columns; the record is a pair too, bit k for column k.  Returns None,
    for the dict kernel to start over, over the rationals as soon as an
    entry of a column or record would leave {-1, 0, 1}."""
    stop = len(columns) if stop is None else stop
    gf2, gf3 = p == 2, p == 3
    pivots: dict[int, tuple[int, int, int, int]] = {}
    free = []
    for j, (plus, minus) in enumerate(columns):
        if gf2:  # -1 = 1
            plus, minus = plus | minus, 0
        rplus, rminus = (1 << j if record else 0), 0
        while support := plus | minus:
            low = support.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = plus, minus, rplus, rminus
                if j >= stop:
                    return list(pivots), free
                break
            if gf2:  # minus stays 0: add by XOR
                plus ^= other[0]
                rplus ^= other[2]
                continue
            oplus, ominus, orplus, orminus = other
            # Add the other column, or subtract it (add it with plus and
            # minus swapped) where both have the same sign at `low`.
            if plus >> low == oplus >> low:
                oplus, ominus, orplus, orminus = ominus, oplus, orminus, orplus
            if gf3:  # 1 + 1 = -1 and -1 + -1 = 1
                plus, minus = _add_gf3(plus, minus, oplus, ominus)
                if record:
                    rplus, rminus = _add_gf3(rplus, rminus, orplus, orminus)
            else:
                if plus & oplus or minus & ominus or rplus & orplus or rminus & orminus:
                    return None  # an entry 2 or -2
                plus, minus = ((plus | oplus) & ~(minus | ominus),
                               (minus | ominus) & ~(plus | oplus))
                if record:
                    rplus, rminus = ((rplus | orplus) & ~(rminus | orminus),
                                     (rminus | orminus) & ~(rplus | orplus))
        else:
            free.append((j, _signed(rplus, rminus, 2 if gf3 else -1) if record else None))
    return list(pivots), free


def _add_gf3(plus: int, minus: int, oplus: int, ominus: int) -> tuple[int, int]:
    """The sum of two (plus, minus) vectors over GF(3)."""
    support, osupport = plus | minus, oplus | ominus
    return ((plus & ~osupport) | (oplus & ~support) | (minus & ominus),
            (minus & ~osupport) | (ominus & ~support) | (plus & oplus))


def _reduce_dict(columns, p: int | None, record: bool, stop: int | None = None):
    """`_reduce` on dict columns, a pair taken as its dict."""
    stop = len(columns) if stop is None else stop
    pivots: dict[int, dict[int, int]] = {}
    free = []
    for j, entries in enumerate(columns):
        scale = 1
        if type(entries) is tuple:  # entries 1 and -1, or its residue
            col = _signed(*entries, -1 if p is None else p - 1)
        elif p is not None:
            col = {i: y for i, x in entries.items() if (y := _residue(x, p))}
        elif all(type(x) is int for x in entries.values()):
            col = {i: x for i, x in entries.items() if x}
        else:
            # Clearing the denominators scales column j, so its record
            # starts at that scale and stays relative to the given column.
            for x in entries.values():
                if type(x) is not int:  # a Fraction; an int subclass has denominator 1
                    scale = lcm(scale, x.denominator)
            col = {i: int(x * scale) for i, x in entries.items() if x}
        if record:
            col[~j] = scale  # the record sits at negative rows, row ~k for column k
        while True:
            low = max(col, default=-1)
            if low < 0:
                free.append((j, {~k: x for k, x in col.items()} if record else None))
                break
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                if j >= stop:
                    return list(pivots), free
                break
            col = _eliminate(col, other, low, p)
    return list(pivots), free


def _signed(plus: int, minus: int, negative: int = -1) -> dict[int, int]:
    """The (plus, minus) vector as a dict, lowest index first: 1 at each
    bit of `plus`, `negative` (-1, or its residue) at each bit of `minus`."""
    entries = {}
    support = plus | minus
    while support:
        low = support & -support
        entries[low.bit_length() - 1] = 1 if plus & low else negative
        support ^= low
    return entries


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


def _kernel(columns, nrows: int, field: FieldSpec) -> list[tuple[int, dict]]:
    """The free columns of a sparse matrix over `field` with their records
    (see `_reduce`), each checked to annihilate `columns`: a kernel basis
    left unscaled, so integral over the rationals, for internal callers.
    The check reads a pair column as its dict once per call, however many
    records hold it."""
    p = field.p
    basis = _reduce(columns, nrows, p, record=True)[1]
    entries: dict[int, dict] = {}  # column k as a dict, made when a record first holds it
    for _, rec in basis:
        image: dict[int, int] = {}
        for k, x in rec.items():
            if k not in entries:
                col = columns[k]
                entries[k] = _signed(*col) if type(col) is tuple else col
            for i, a in entries[k].items():
                image[i] = image.get(i, 0) + x * a
        if any(s if p is None else _residue(s, p) for s in image.values()):
            raise AssertionError("nullspace vector fails verification")
    return basis


def sparse_nullspace(columns, nrows: int, field: FieldSpec) -> list[dict]:
    """Basis of the right kernel of a sparse matrix over `field`, one
    {column: coefficient} dict per free column, 1 at that column and 0 at
    the other free columns.  Coefficients are ``Fraction``s over the
    rationals and residues over GF(p).  Each is checked to annihilate
    `columns`."""
    basis = []
    for j, rec in _kernel(columns, nrows, field):
        keys = sorted(rec)
        basis.append(dict(zip(keys, _divided([rec[k] for k in keys], rec[j], field.p))))
    return basis


def _divided(values: list, lead: int, p: int | None) -> list:
    """Each of `values` divided by `lead`: ``Fraction``s over the
    rationals, residues over GF(p)."""
    if p is None:
        from fractions import Fraction

        return [Fraction(x, lead) for x in values]
    inv = pow(lead, -1, p)
    return [x * inv % p for x in values]


def sparse_in_span(columns, nrows: int, vector: dict, field: FieldSpec) -> bool:
    """True iff the sparse column `vector` is a linear combination of `columns`."""
    free = _reduce([*columns, vector], nrows, field.p)[1]
    return bool(free) and free[-1][0] == len(columns)
