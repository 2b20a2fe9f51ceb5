import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlacement import (
    DimensionMismatch,
    GF2Matrix,
    GF2Vector,
    IndexOutOfRange,
    Singular,
    inverse,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    spans_equal,
)
from interlacement.gf2 import _echelon_rows, _rref_rows
from conftest import matrix_from_rows


def naive_mat_mul(a, b):
    # textbook triple loop over {0,1}, the oracle for the bitset product
    n, k, m = a.nrows, a.ncols, b.ncols
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0
            for t in range(k):
                s ^= a.entry(i, t) & b.entry(t, j)
            out[i][j] = s
    return out


def naive_rank(lists):
    rows = [list(r) for r in lists if any(r)]
    ncols = len(lists[0]) if lists else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def random_matrix(rng, nrows, ncols):
    return matrix_from_rows(
        [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_vector_basics():
    v = GF2Vector(4, 0b1101)
    assert v.n == 4
    assert v.to_tuple() == (1, 0, 1, 1)
    assert str(v) == "1011"
    assert v + v == GF2Vector.zero(4)
    assert v + GF2Vector.unit(4, 1) == GF2Vector(4, 0b1111)


def test_vector_rejects_non_int():
    for n, bits in ((2, 1.5), (2, "1"), (None, 1)):
        with pytest.raises(DimensionMismatch, match="must be ints"):
            GF2Vector(n, bits)


def test_vector_unit_out_of_range():
    with pytest.raises(IndexOutOfRange):
        GF2Vector.unit(3, 3)


def test_matrix_identity_and_entry():
    m = GF2Matrix.identity(3)
    assert m.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert m.entry(2, 2) == 1
    assert m.entry(2, 0) == 0


def test_matrix_rows_stored_as_tuple():
    # a list of rows is stored as a tuple, so the matrix hashes and
    # equals the one built from the tuple
    m = GF2Matrix(1, 2, [1])
    assert m.rows == (1,) and isinstance(m.rows, tuple)
    assert m == GF2Matrix(1, 2, (1,)) and hash(m) == hash(GF2Matrix(1, 2, (1,)))
    for bad in (5, None):
        with pytest.raises(DimensionMismatch, match="not a sequence of rows"):
            GF2Matrix(1, 2, bad)
    # rows that are not ints are typed errors, not a TypeError
    for bad in ((1.0,), ("a",), (None,)):
        with pytest.raises(DimensionMismatch, match="must be ints"):
            GF2Matrix(1, 1, bad)
    # so is a shape that is not an int, even when the rows fit it
    for shape, rows in (((1.0, 1), (1,)), ((0, 1.0), ())):
        with pytest.raises(DimensionMismatch, match="must be ints"):
            GF2Matrix(*shape, rows)


def test_matmul_against_naive():
    rng = random.Random(11)
    for _ in range(60):
        n, k, m = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 7)
        a = random_matrix(rng, n, k)
        b = random_matrix(rng, k, m)
        assert (a @ b).to_lists() == naive_mat_mul(a, b)


def test_matmul_edge_shapes():
    # non-square shapes including empty dimensions, and all-zero factors
    rng = random.Random(12)
    for n in range(4):
        for k in range(4):
            for m in range(4):
                a = GF2Matrix(n, k, tuple(rng.getrandbits(k) for _ in range(n)))
                b = GF2Matrix(k, m, tuple(rng.getrandbits(m) for _ in range(k)))
                za = GF2Matrix(n, k, (0,) * n)
                zb = GF2Matrix(k, m, (0,) * k)
                zero = GF2Matrix(n, m, (0,) * n)
                for x, y in ((a, b), (za, b), (a, zb)):
                    product = x @ y
                    assert (product.nrows, product.ncols) == (n, m)
                    assert product.to_lists() == naive_mat_mul(x, y)
                assert za @ b == a @ zb == zero


def test_matmul_dimension_mismatch():
    a = GF2Matrix.identity(2)
    b = GF2Matrix.identity(3)
    with pytest.raises(DimensionMismatch):
        mat_mul(a, b)


def test_rank_against_naive():
    rng = random.Random(23)
    for _ in range(80):
        n, m = rng.randrange(1, 8), rng.randrange(1, 8)
        a = random_matrix(rng, n, m)
        assert rank(a) == naive_rank(a.to_lists())


def test_rref_idempotent_and_rank_preserving():
    rng = random.Random(31)
    for _ in range(40):
        a = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        r = rref(a)
        assert rref(r) == r
        assert rank(r) == rank(a)


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(80):
        a = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        basis = kernel_basis(a)
        assert len(basis) == a.ncols - rank(a)
        for v in basis:
            # every row of a meets v in an even number of ones
            assert all((r & v.bits).bit_count() % 2 == 0 for r in a.rows)
        # basis vectors are independent
        assert rank(GF2Matrix.from_vectors(basis, a.ncols)) == len(basis)


def test_inverse_round_trip():
    rng = random.Random(13)
    found = 0
    while found < 25:
        n = rng.randrange(1, 7)
        a = random_matrix(rng, n, n)
        if rank(a) < n:
            continue
        found += 1
        inv = inverse(a)
        assert (a @ inv) == GF2Matrix.identity(n)
        assert (inv @ a) == GF2Matrix.identity(n)


def test_inverse_singular_raises():
    a = matrix_from_rows([[1, 1], [1, 1]])
    with pytest.raises(Singular):
        inverse(a)


def test_spans_equal_permuted_basis():
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        a = random_matrix(rng, n, m)
        rows = a.to_lists()
        rng.shuffle(rows)
        # add a random row sum, keeping the span
        if len(rows) >= 2:
            rows.append([x ^ y for x, y in zip(rows[0], rows[1])])
        b = matrix_from_rows(rows)
        assert spans_equal(a, b)


def test_spans_equal_detects_difference():
    a = matrix_from_rows([[1, 0], [0, 1]])
    b = matrix_from_rows([[1, 0]])
    assert not spans_equal(a, b)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_matmul_associative(n, k, m, rng):
    a = random_matrix(rng, n, k)
    b = random_matrix(rng, k, m)
    c = random_matrix(rng, m, n)
    assert (a @ b) @ c == a @ (b @ c)


@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_bounded_and_transpose_invariant(n, rng):
    a = random_matrix(rng, n, rng.randrange(1, 8))
    r = rank(a)
    assert 0 <= r <= min(a.nrows, a.ncols)
    transposed = matrix_from_rows(zip(*a.to_lists()))
    assert rank(transposed) == r


# The column-scan elimination that preceded the incremental reduction:
# for each column in turn, the first remaining row with a 1 there is the
# pivot, and back substitution then clears the pivot columns above.
# It is the oracle for the rebuilt elimination.
def column_scan_echelon(rows, ncols):
    work = list(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i] >> c & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i] >> c & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
    return work, pivots


def column_scan_rref(rows, ncols):
    work, pivots = column_scan_echelon(rows, ncols)
    for k in range(len(pivots) - 1, 0, -1):
        for i in range(k):
            if work[i] >> pivots[k] & 1:
                work[i] ^= work[k]
    return work, pivots


def column_scan_kernel(m):
    work, pivots = column_scan_rref(m.rows, m.ncols)
    basis = []
    for f in range(m.ncols):
        if f not in pivots:
            bits = 1 << f
            for k, p in enumerate(pivots):
                if work[k] >> f & 1:
                    bits |= 1 << p
            basis.append(GF2Vector(m.ncols, bits))
    return basis


def column_scan_inverse(m):
    n = m.nrows
    aug = [row | 1 << (n + i) for i, row in enumerate(m.rows)]
    work, pivots = column_scan_rref(aug, n)
    if len(pivots) != n:
        return None
    return GF2Matrix(n, n, tuple(row >> n for row in work))


@st.composite
def bit_rows(draw, nrows, ncols):
    """Rows of ``ncols`` bits: dense, sparse, all zero or rank deficient."""
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "deficient")))
    full = st.integers(0, (1 << ncols) - 1)
    if kind == "zero" or ncols == 0:
        return [0] * nrows
    if kind == "sparse":
        bit = st.integers(0, ncols - 1)
        return [
            sum({1 << b for b in draw(st.lists(bit, max_size=2))}) for _ in range(nrows)
        ]
    if kind == "dense":
        return [draw(full) for _ in range(nrows)]
    # every row a sum of a few base rows, so the rank stays small
    base = draw(st.lists(full, min_size=1, max_size=3))
    rows = []
    for _ in range(nrows):
        picks = draw(st.lists(st.sampled_from(base), max_size=len(base)))
        acc = 0
        for b in picks:
            acc ^= b
        rows.append(acc)
    return rows


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(0, 14))
    ncols = nrows if square else draw(st.integers(0, 14))
    return GF2Matrix(nrows, ncols, tuple(draw(bit_rows(nrows, ncols))))


@given(matrices(), matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_column_scan(a, b):
    work, pivots = column_scan_rref(a.rows, a.ncols)
    assert _echelon_rows(a.rows, a.ncols)[1] == pivots
    assert rank(a) == len(pivots)
    assert rref(a) == GF2Matrix(a.nrows, a.ncols, tuple(work))
    assert kernel_basis(a) == column_scan_kernel(a)
    # b shares a's width, so spans_equal can be asked of the pair
    b = GF2Matrix(b.nrows, a.ncols, tuple(r & (1 << a.ncols) - 1 for r in b.rows))
    for x, y in ((a, a), (a, b), (a, GF2Matrix(a.nrows, a.ncols, tuple(work)))):
        ra = [r for r in column_scan_rref(x.rows, x.ncols)[0] if r]
        rb = [r for r in column_scan_rref(y.rows, y.ncols)[0] if r]
        assert spans_equal(x, y) == (ra == rb)


@given(matrices(square=True))
@settings(max_examples=300, deadline=None)
def test_inverse_matches_column_scan(a):
    expected = column_scan_inverse(a)
    if expected is None:
        with pytest.raises(Singular):
            inverse(a)
    else:
        assert inverse(a) == expected


@given(st.integers(0, 14), st.integers(0, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_echelon_with_bits_past_ncols(ncols, extra, data):
    # inverse-style rows carry bits past ncols; pivots, the reduced rows
    # within ncols and the span of the whole rows must all agree
    nrows = data.draw(st.integers(0, 14))
    rows = data.draw(bit_rows(nrows, ncols + extra))
    mask = (1 << ncols) - 1
    work, pivots = _echelon_rows(rows, ncols)
    assert pivots == column_scan_echelon(rows, ncols)[1]
    assert len(work) == nrows
    assert all(w & mask == 0 for w in work[len(pivots):])
    assert all(w & mask & -(w & mask) == 1 << p for w, p in zip(work, pivots))
    new_rref, _ = _rref_rows(rows, ncols)
    old_rref, _ = column_scan_rref(rows, ncols)
    assert [r & mask for r in new_rref] == [r & mask for r in old_rref]
    width = ncols + extra
    assert column_scan_rref(work, width)[0] == column_scan_rref(rows, width)[0]
