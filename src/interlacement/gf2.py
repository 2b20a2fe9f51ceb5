"""Exact dense linear algebra over the two-element field GF(2).

Matrix rows are Python integers used as bit sets (bit ``j`` of a row is
the entry in column ``j``), so adding one row to another is a single
word-parallel XOR regardless of the matrix width.  Each row is reduced
by the rows before it and pivots on its lowest remaining column, which
gives the canonical reduced form.  Every operation here is exact;
nothing involves a tolerance.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionMismatch, IndexOutOfRange, Singular

__all__ = [
    "GF2Vector",
    "GF2Matrix",
    "iter_bits",
    "mat_mul",
    "rank",
    "rank_rows",
    "rref",
    "kernel_basis",
    "inverse",
    "spans_equal",
]


def iter_bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class GF2Vector:
    """A length-``n`` vector over GF(2), coordinates packed into one integer.

    Bit ``i`` of ``bits`` holds coordinate ``i``.  Addition is XOR.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        try:
            if n < 0 or bits < 0 or bits >> n:
                raise DimensionMismatch(
                    f"value {bits:#x} does not fit in {n} coordinates"
                )
        except TypeError:
            raise DimensionMismatch(
                f"length {n!r} and value {bits!r} must be ints"
            ) from None
        self.n = n
        self.bits = bits

    def __eq__(self, other) -> bool:
        if type(other) is not GF2Vector:
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    @classmethod
    def zero(cls, n: int) -> "GF2Vector":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int, i: int) -> "GF2Vector":
        """Standard basis vector with a single 1 in coordinate ``i``."""
        if not 0 <= i < n:
            raise IndexOutOfRange(f"coordinate {i} out of range for length {n}")
        return cls(n, 1 << i)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"coordinate {i} out of range for length {self.n}")
        return (self.bits >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __add__(self, other: "GF2Vector") -> "GF2Vector":
        if self.n != other.n:
            raise DimensionMismatch(f"vector lengths differ: {self.n} != {other.n}")
        return GF2Vector(self.n, self.bits ^ other.bits)

    __xor__ = __add__

    def to_tuple(self) -> Tuple[int, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))


class GF2Matrix:
    """Immutable dense matrix over GF(2) with integer bit-set rows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        # stored as a tuple, so any sequence of rows hashes like its tuple;
        # the products of the hot loops already are tuples and skip this
        if type(rows) is not tuple:
            try:
                rows = tuple(rows)
            except TypeError:
                raise DimensionMismatch(
                    f"{rows!r} is not a sequence of rows"
                ) from None
        try:
            # operator.index refuses a float or other non-integral shape
            nr, nc = operator.index(nrows), operator.index(ncols)
            if nr < 0 or nc < 0 or len(rows) != nr:
                raise DimensionMismatch(
                    f"{len(rows)} rows supplied for a {nrows}x{ncols} matrix"
                )
            for r in rows:
                if r < 0 or r >> nc:
                    raise DimensionMismatch(
                        f"row {r:#x} does not fit in {ncols} columns"
                    )
        except TypeError:
            raise DimensionMismatch(
                f"shape {nrows!r}x{ncols!r} and rows {rows!r} must be ints"
            ) from None
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _unchecked(cls, nrows: int, ncols: int, rows: Tuple[int, ...]) -> "GF2Matrix":
        """A matrix the caller vouches for: ``rows`` is a tuple of
        ``nrows`` ints that fit in ``ncols`` columns.  For the builders
        whose rows are valid by construction; nothing is checked."""
        m = object.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    def __eq__(self, other) -> bool:
        if type(other) is not GF2Matrix:
            return NotImplemented
        return (
            self.rows == other.rows
            and self.nrows == other.nrows
            and self.ncols == other.ncols
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_row_bits(cls, bits: Iterable[int], ncols: int) -> "GF2Matrix":
        rs = tuple(bits)
        return cls(len(rs), ncols, rs)

    @classmethod
    def from_vectors(cls, vectors: Iterable[GF2Vector], ncols: int) -> "GF2Matrix":
        """Stack vectors as rows; ``ncols`` fixes the width when empty."""
        rs = []
        for v in vectors:
            if v.n != ncols:
                raise DimensionMismatch(f"vector length {v.n} != {ncols} columns")
            rs.append(v.bits)
        return cls(len(rs), ncols, tuple(rs))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        return (self.rows[i] >> j) & 1

    def row(self, i: int) -> GF2Vector:
        if not 0 <= i < self.nrows:
            raise IndexOutOfRange(f"row {i} outside {self.nrows}x{self.ncols}")
        return GF2Vector(self.ncols, self.rows[i])

    def to_lists(self) -> List[List[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        return mat_mul(self, other)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.nrows))


def mat_mul(a: GF2Matrix, b: GF2Matrix) -> GF2Matrix:
    """Matrix product over GF(2).

    Row ``i`` of the product is the XOR of the rows of ``b`` selected by
    the set bits of row ``i`` of ``a``, so the cost is one word operation
    per nonzero entry of ``a``.  The set bits are walked inline, lowest
    first, since this is the inner loop of the naturality sweep.

    Args:
        a: left factor, shape (r, m).
        b: right factor, shape (m, c).

    Returns:
        The product of shape (r, c).

    Raises:
        DimensionMismatch: if the inner dimensions differ.
    """
    if a.ncols != b.nrows:
        raise DimensionMismatch(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )
    brows = b.rows
    out = []
    for ra in a.rows:
        acc = 0
        while ra:
            low = ra & -ra
            acc ^= brows[low.bit_length() - 1]
            ra ^= low
        out.append(acc)
    return GF2Matrix._unchecked(a.nrows, b.ncols, tuple(out))


def _reduce(x: int, lead: Dict[int, int], mask: int = -1) -> int:
    """Reduce ``x`` by ``lead``, rows keyed by their lowest bit within ``mask``.

    The remainder's lowest masked bit keys no row; it is 0 exactly when
    ``x`` lies in the rows' span.
    """
    m = x & mask
    while m:
        row = lead.get(m & -m)
        if row is None:
            break
        x ^= row
        m = x & mask
    return x


def _echelon_rows(rows: Iterable[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Row echelon form of integer rows by forward elimination.

    Returns (rows, pivot column list): row ``k`` has its leading entry in
    column ``pivots[k]``, and the rows after the last pivot row are zero
    in the first ``ncols`` columns.  Each row pivots on its lowest column
    left after reduction by the rows before it, which gives the same
    pivots and canonical reduced form as pivoting column by column.
    """
    mask = (1 << ncols) - 1
    lead: Dict[int, int] = {}
    zero: List[int] = []
    for r in rows:
        r = _reduce(r, lead, mask)
        m = r & mask
        if m:
            lead[m & -m] = r
        else:
            zero.append(r)
    order = sorted(lead)
    return [lead[b] for b in order] + zero, [b.bit_length() - 1 for b in order]


def _rref_rows(rows: Sequence[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form of integer rows.

    Returns (reduced rows, pivot column list): the echelon form with each
    pivot column cleared above its pivot, which makes the result canonical
    for a given row span.
    """
    work, pivots = _echelon_rows(rows, ncols)
    for k in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[k], work[k]
        for i in range(k):
            if (work[i] >> c) & 1:
                work[i] ^= prow
    return work, pivots


def rank_rows(rows: Iterable[int], ncols: int) -> int:
    """Rank of a list of integer bit-set rows (forward elimination only)."""
    return len(_echelon_rows(rows, ncols)[1])


def rank(m: GF2Matrix) -> int:
    """Rank of ``m`` over GF(2)."""
    return rank_rows(m.rows, m.ncols)


def rref(m: GF2Matrix) -> GF2Matrix:
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Zero rows, if any, are collected at the bottom.  Two matrices have
    equal row spans exactly when their reduced forms agree after zero
    rows are dropped.
    """
    work, _ = _rref_rows(m.rows, m.ncols)
    return GF2Matrix(m.nrows, m.ncols, tuple(work))


def kernel_basis(m: GF2Matrix) -> List[GF2Vector]:
    """Deterministic basis for the right kernel ``{x : m @ x = 0}``.

    One basis vector per free column, produced in increasing free-column
    order: the vector for free column ``f`` has a 1 at ``f`` and copies
    the column-``f`` entries of the reduced form into the pivot
    coordinates.

    Returns:
        A list of ``ncols - rank`` vectors of length ``ncols``.
    """
    work, pivots = _rref_rows(m.rows, m.ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        bits = 1 << f
        for k, p in enumerate(pivots):
            if (work[k] >> f) & 1:
                bits |= 1 << p
        basis.append(GF2Vector(m.ncols, bits))
    return basis


def inverse(m: GF2Matrix) -> GF2Matrix:
    """Inverse of a square matrix over GF(2).

    Raises:
        DimensionMismatch: if ``m`` is not square.
        Singular: if ``m`` has no inverse.
    """
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch(f"cannot invert a {m.nrows}x{m.ncols} matrix")
    aug = [row | (1 << (n + i)) for i, row in enumerate(m.rows)]
    work, pivots = _rref_rows(aug, n)
    if len(pivots) != n:
        raise Singular(f"matrix of rank {len(pivots)} < {n} has no inverse")
    return GF2Matrix(n, n, tuple(row >> n for row in work))


def spans_equal(a: GF2Matrix, b: GF2Matrix) -> bool:
    """Whether the row spans of ``a`` and ``b`` coincide.

    Both matrices must have the same number of columns; the row counts
    may differ.  Decided by comparing reduced forms with zero rows
    dropped, so no randomness is involved.
    """
    if a.ncols != b.ncols:
        raise DimensionMismatch(f"column counts differ: {a.ncols} != {b.ncols}")
    ra, _ = _rref_rows(a.rows, a.ncols)
    rb, _ = _rref_rows(b.rows, b.ncols)
    return [r for r in ra if r] == [r for r in rb if r]
