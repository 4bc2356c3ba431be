from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy

from bstar import linalg
from bstar.constructions import rp2_6
from bstar.homology import _boundary
from bstar.linalg import (GF2, QQ, FieldSpec, LinalgGuardError, is_prime, set_max_cells,
                          sparse_in_span, sparse_nullspace, sparse_pivots, sparse_rank)
from oracles import (kernel_by_enumeration, pivot_rows_by_pairing, rank_by_minors,
                     rank_modular, rank_of_columns, rank_rational, residue_columns,
                     signed_column)

# boundary map of a 3-cycle: rows = vertices, cols = edges 01, 02, 12
CYCLE3_D1 = [
    [1, 1, 0],
    [-1, 0, 1],
    [0, -1, -1],
]


def column(vector):
    """A dense vector as a sparse column {row: entry} (see `linalg`)."""
    return {i: x for i, x in enumerate(vector) if x}


def columns_of(matrix):
    """A dense matrix, a list of equal-length rows, as its sparse columns
    and its row count: the arguments of the sparse entry points."""
    ncols = len(matrix[0]) if matrix else 0
    return [column([row[j] for row in matrix]) for j in range(ncols)], len(matrix)


def test_field_parsing():
    assert FieldSpec.parse("q") == QQ
    assert FieldSpec.parse("gf:2") == GF2
    assert FieldSpec.parse("GF:7").p == 7
    with pytest.raises(ValueError):
        FieldSpec.parse("gf:6")
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)
    with pytest.raises(ValueError):
        FieldSpec.parse("r")


def test_is_prime():
    primes = [2, 3, 5, 7, 2**31 - 1]
    composites = [1, 0, 4, 9, 561, 2**31 - 3]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


@pytest.mark.parametrize("field", [QQ, GF2, FieldSpec(5)])
def test_rank_trivial(field):
    assert sparse_rank(*columns_of([[0, 0, 0]] * 3), field) == 0
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert sparse_rank(*columns_of(eye), field) == 4


def test_rank_cycle_boundary():
    # oracle: largest invertible minor
    assert rank_by_minors(CYCLE3_D1) == 2
    for field in (QQ, GF2, FieldSpec(3)):
        assert sparse_rank(*columns_of(CYCLE3_D1), field) == 2


def test_rank_fraction_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert sparse_rank(*columns_of(m), QQ) == rank_by_minors(m)


def test_fraction_entries_over_gfp():
    # 1/2 is 2 mod 3, not int(1/2) = 0
    gf3 = FieldSpec(3)
    assert sparse_rank(*columns_of([[Fraction(1, 2)]]), gf3) == 1
    assert sparse_nullspace(*columns_of([[Fraction(1, 2), 1]]), gf3) == [{0: 1, 1: 1}]
    assert sparse_in_span(*columns_of([[Fraction(1, 2)]]), {0: 1}, gf3)
    with pytest.raises(ValueError, match="no residue mod 3"):
        sparse_rank(*columns_of([[Fraction(1, 3)]]), gf3)


def test_nullspace_examples():
    eye = [[1, 0], [0, 1]]
    assert sparse_nullspace(*columns_of(eye), QQ) == []
    basis = sparse_nullspace(*columns_of([[1, 1]]), GF2)
    assert basis == [{0: 1, 1: 1}]
    cyc = sparse_nullspace(*columns_of(CYCLE3_D1), QQ)
    assert len(cyc) == 1
    # the kernel element is the signed cycle 12 - 02 + 01
    v = cyc[0]
    assert all(type(x) is Fraction for x in v.values())
    assert [v[j] / v[2] for j in range(3)] == [Fraction(1), Fraction(-1), Fraction(1)]


def test_in_column_space_examples():
    m = columns_of([[1, 0], [0, 1], [1, 1]])
    assert sparse_in_span(*m, column([0, 0, 0]), QQ)
    assert sparse_in_span(*m, column([1, 2, 3]), QQ)
    assert not sparse_in_span(*columns_of([[0], [0]]), column([1, 0]), QQ)
    assert sparse_in_span(*columns_of([]), column([]), QQ)
    assert not sparse_in_span(*m, column([1, 0, 0]), QQ)
    # boundary of the full triangle hits the boundary cycle of its rim
    d2 = columns_of([[1], [-1], [1]])
    assert sparse_in_span(*d2, column([1, -1, 1]), QQ)
    assert sparse_in_span(*d2, column([1, 1, 1]), GF2)
    assert not sparse_in_span(*d2, column([1, 1, 1]), QQ)


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return [[draw(small_entries) for _ in range(cols)] for _ in range(rows)]


@given(small_matrices(), st.sampled_from([QQ, GF2, FieldSpec(5), FieldSpec(97)]))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m, field):
    columns, nrows = columns_of(m)
    assert sparse_rank(columns, nrows, field) + len(sparse_nullspace(columns, nrows, field)) \
        == len(columns)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_matches_minor_oracle(m):
    assert sparse_rank(*columns_of(m), QQ) == rank_by_minors(m)


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_rational_rank_dominates_modular(m):
    rq = sparse_rank(*columns_of(m), QQ)
    assert sparse_rank(*columns_of(m), FieldSpec(2)) <= rq
    # a large prime cannot divide any of the small minors involved here
    assert sparse_rank(*columns_of(m), FieldSpec(2**31 - 1)) == rq


@given(small_matrices(), st.sampled_from([QQ, FieldSpec(3)]))
@settings(max_examples=30, deadline=None)
def test_nullspace_vectors_annihilate(m, field):
    for v in sparse_nullspace(*columns_of(m), field):
        for row in m:
            s = sum(row[j] * x for j, x in v.items())
            assert (s == 0) if field.p is None else (s % field.p == 0)


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(1, 7))
    cell = st.one_of(st.just(0), small_entries)
    dense = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    columns = [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)]
    return columns, nrows


def _oracle_rank(columns, nrows, field):
    if nrows == 0 or not columns:
        return 0
    m = sympy.Matrix(nrows, len(columns), lambda i, j: columns[j].get(i, 0))
    return m.rank() if field.p is None else rank_modular(m, field.p)


@given(sparse_matrices(), st.sampled_from([QQ, GF2, FieldSpec(3)]))
@settings(max_examples=150, deadline=None)
def test_sparse_kernel_matches_oracles(matrix, field):
    columns, nrows = matrix
    assert sparse_rank(columns, nrows, field) == _oracle_rank(columns, nrows, field)
    # column j is a non-pivot column iff it lies in the span of the
    # columns before it; the kernel has one vector per such column, 1 there
    # and 0 at every other non-pivot column
    non_pivot = [j for j in range(len(columns))
                 if _oracle_rank(columns[:j + 1], nrows, field)
                 == _oracle_rank(columns[:j], nrows, field)]
    basis = sparse_nullspace(columns, nrows, field)
    assert len(basis) == len(non_pivot)
    for j, v in zip(non_pivot, basis):
        assert [v.get(k, 0) for k in non_pivot] == [int(k == j) for k in non_pivot]


def test_determinism():
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    results = {sparse_rank(*columns_of([row[:] for row in m]), QQ) for _ in range(5)}
    assert len(results) == 1
    b1 = sparse_nullspace(*columns_of(CYCLE3_D1), FieldSpec(7))
    b2 = sparse_nullspace(*columns_of([row[:] for row in CYCLE3_D1]), FieldSpec(7))
    assert b1 == b2


def test_cell_guard():
    set_max_cells(10)
    try:
        with pytest.raises(LinalgGuardError):
            sparse_rank(*columns_of([[0] * 10] * 10), QQ)
    finally:
        set_max_cells(1 << 24)


def test_cell_guard_over_gf2():
    # the bit-vector kernel keeps the guard of the dict kernel
    set_max_cells(10)
    try:
        for call in (lambda m: sparse_rank(*m, GF2), lambda m: sparse_nullspace(*m, GF2),
                     lambda m: sparse_in_span(*m, {0: 1}, GF2)):
            with pytest.raises(LinalgGuardError):
                call(columns_of([[1] * 4] * 3))
    finally:
        set_max_cells(1 << 24)


# entries with odd denominators, which have a residue mod 2
odd_fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 3, 5]))


@st.composite
def gf2_matrices(draw):
    """Sparse columns of ints and odd-denominator Fractions, zeros included,
    and a vector for the span test."""
    nrows = draw(st.integers(0, 6))
    cell = st.one_of(st.just(0), small_entries, odd_fractions)
    columns = [{i: x for i in range(nrows) if (x := draw(cell)) or draw(st.booleans())}
               for _ in range(draw(st.integers(1, 6)))]
    return columns, nrows, {i: draw(cell) for i in range(nrows)}


@given(gf2_matrices())
@settings(max_examples=120, deadline=None)
def test_gf2_kernel_matches_modular_elimination(matrix):
    # the bit-vector kernel against an elimination on residues mod 2 that
    # shares no code with it: pivots in column order, rank, kernel basis
    # and span
    columns, nrows, vector = matrix
    expected = [i for i in pivot_rows_by_pairing(columns, nrows, 2) if i is not None]
    assert sparse_pivots(columns, nrows, GF2) == expected
    assert sparse_rank(columns, nrows, GF2) == len(expected)
    assert sparse_nullspace(columns, nrows, GF2) == kernel_by_enumeration(columns, nrows, 2)
    res = residue_columns([*columns, vector], 2)
    assert sparse_in_span(columns, nrows, vector, GF2) == (
        rank_of_columns(res, range(nrows), 2) == rank_of_columns(res[:-1], range(nrows), 2))


def test_even_denominator_has_no_residue_mod_2():
    for call in (lambda m: sparse_rank(*m, GF2), lambda m: sparse_nullspace(*m, GF2),
                 lambda m: sparse_in_span(*m, {0: 1}, GF2)):
        with pytest.raises(ValueError, match="no residue mod 2"):
            call(columns_of([[1, Fraction(1, 2)]]))


@st.composite
def signed_matrices(draw):
    """Columns with entries in {-1, 0, 1} as (plus, minus) pairs, with now
    and then a dict column holding 2, -2 or a Fraction, which sends the
    whole matrix to the dict kernel; and every column as a dict."""
    nrows = draw(st.integers(0, 7))
    columns, dicts = [], []
    for _ in range(draw(st.integers(1, 7))):
        entries = {i: x for i in range(nrows) if (x := draw(st.sampled_from((-1, 0, 0, 1))))}
        if nrows and draw(st.integers(0, 7)) == 0:
            entries[draw(st.integers(0, nrows - 1))] = draw(
                st.sampled_from((2, -2, Fraction(1, 2), Fraction(-2, 5))))
            columns.append(entries)
        else:
            columns.append((sum(1 << i for i, x in entries.items() if x == 1),
                            sum(1 << i for i, x in entries.items() if x == -1)))
        dicts.append(entries)
    return columns, dicts, nrows


@given(signed_matrices(), st.sampled_from([QQ, GF2, FieldSpec(3)]))
@settings(max_examples=300, deadline=None)
def test_signed_kernel_matches_dict_kernel(matrix, field):
    # pivots, free columns and records of the signed kernel (or of its
    # fallback) against the dict kernel on the same matrix, and the rank
    # against oracles that share no code with either
    columns, dicts, nrows = matrix
    p = field.p
    if p == 2 and any(type(x) is Fraction and x.denominator % 2 == 0
                      for col in dicts for x in col.values()):
        # 1/2 has no residue mod 2, so neither kernel ranks the matrix
        with pytest.raises(ValueError, match="no residue mod 2"):
            linalg._reduce(columns, nrows, p)
        with pytest.raises(ValueError, match="no residue mod 2"):
            linalg._reduce_dict(dicts, p, False)
        return
    for record in (False, True):
        pivots, free = linalg._reduce(columns, nrows, p, record)
        want_pivots, want_free = linalg._reduce_dict(dicts, p, record)
        assert pivots == want_pivots
        assert [j for j, _ in free] == [j for j, _ in want_free]
        assert [rec for _, rec in free] == [rec for _, rec in want_free]
        if record and p is not None:
            assert all(0 < x < p for _, rec in free for x in rec.values())
    if p is None:
        m = sympy.Matrix(nrows, len(dicts), lambda i, j: dicts[j].get(i, 0))
        assert len(pivots) == (rank_rational(m) if nrows else 0)
    else:
        assert len(pivots) == rank_of_columns(residue_columns(dicts, p), range(nrows), p)
    assert sparse_nullspace(columns, nrows, field) == sparse_nullspace(dicts, nrows, field)


@given(signed_matrices(), st.sampled_from([QQ, GF2, FieldSpec(3)]), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_stop_cuts_the_reduction_at_the_first_pivot_from_there(matrix, field, stop):
    # with `stop`, both kernels return the full reduction cut after the
    # first column from index `stop` on that keeps a pivot
    columns, dicts, nrows = matrix
    p = field.p
    if p == 2 and any(type(x) is Fraction and x.denominator % 2 == 0
                      for col in dicts for x in col.values()):
        return  # no residue mod 2, see test_signed_kernel_matches_dict_kernel
    pivots, free = linalg._reduce(columns, nrows, p)
    free_columns = {j for j, _ in free}
    kept = [j for j in range(len(columns)) if j not in free_columns]
    end = next((j + 1 for j in kept if j >= stop), len(columns))
    want = (pivots[:sum(j < end for j in kept)], sorted(j for j in free_columns if j < end))
    for got in (linalg._reduce(columns, nrows, p, stop=stop),
                linalg._reduce_dict(dicts, p, False, stop)):
        assert (got[0], [j for j, _ in got[1]]) == want


def test_a_dict_column_goes_to_the_dict_kernel_from_the_start(monkeypatch):
    # `sparse_in_span` appends its vector last, so a dict vector after
    # pair columns must not make the signed kernel eliminate them first
    def no_signed_kernel(*args):
        raise AssertionError("signed kernel run on a matrix with a dict column")

    monkeypatch.setattr(linalg, "_reduce_signed", no_signed_kernel)
    columns = [(0b011, 0), (0b110, 0)]  # rows 0 + 1 and rows 1 + 2
    for field in (QQ, FieldSpec(3)):
        assert sparse_in_span(columns, 3, {0: 1, 1: 2, 2: 1}, field)
        assert not sparse_in_span(columns, 3, {0: 1}, field)


def test_signed_kernel_falls_back_on_rp2():
    # reducing the boundary of the 6-vertex projective plane over Q makes
    # an entry 2, so the dict kernel ranks it; over GF(3) 1 + 1 = -1
    c = rp2_6()
    nrows = len(c.face_masks(1))
    columns = _boundary(c.face_masks(2), c.face_masks(1))
    dicts = [signed_column(*col) for col in columns]
    assert linalg._reduce_signed(columns, None, False) is None
    assert linalg._reduce_signed(columns, 3, True) is not None
    for p, rank in ((None, 10), (3, 10), (2, 9)):
        assert linalg._reduce(columns, nrows, p, True) == linalg._reduce_dict(dicts, p, True)
        assert len(linalg._reduce(columns, nrows, p)[0]) == rank


def test_kernel_reads_each_pair_column_as_a_dict_once(monkeypatch):
    # the boundary of the complete graph on 4 vertices: its 3 kernel
    # vectors are the triangles through vertex 0, which share the edges at
    # 0, and the check against the columns reads each edge once
    converted = []
    signed = linalg._signed

    def counting_signed(*args):
        if len(args) == 2:  # a column read as its dict; a record passes its sign too
            converted.append(args)
        return signed(*args)

    monkeypatch.setattr(linalg, "_signed", counting_signed)
    columns = [(1 << b, 1 << a) for a in range(4) for b in range(a + 1, 4)]
    for field in (QQ, GF2, FieldSpec(3), FieldSpec(5)):
        converted.clear()
        kernel = linalg._kernel(columns, 4, field)
        assert len(kernel) == 3
        assert sum(len(rec) for _, rec in kernel) == 9  # each edge at 0 in two records
        assert sorted(converted) == sorted(columns)
