"""Exact dense linear algebra over the two-element field GF(2).

Matrix rows are Python integers used as bit sets (bit ``j`` of a row is
the entry in column ``j``), so adding one row to another is a single
word-parallel XOR regardless of the matrix width.  Pivoting is fully
deterministic: the pivot is always the first nonzero entry in column
order.  Every operation here is exact; nothing involves a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionMismatch, IndexOutOfRange, Singular

__all__ = [
    "GF2Vector",
    "GF2Matrix",
    "iter_bits",
    "mat_mul",
    "mat_vec",
    "add_row",
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


@dataclass(frozen=True)
class GF2Vector:
    """A length-``n`` vector over GF(2), coordinates packed into one integer.

    Bit ``i`` of ``bits`` holds coordinate ``i``.  Addition is XOR.
    """

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise DimensionMismatch(
                f"value {self.bits:#x} does not fit in {self.n} coordinates"
            )

    @classmethod
    def zero(cls, n: int) -> "GF2Vector":
        return cls(n, 0)

    @classmethod
    def unit(cls, n: int, i: int) -> "GF2Vector":
        """Standard basis vector with a single 1 in coordinate ``i``."""
        if not 0 <= i < n:
            raise IndexOutOfRange(f"coordinate {i} out of range for length {n}")
        return cls(n, 1 << i)

    @classmethod
    def from_coords(cls, coords: Iterable[int]) -> "GF2Vector":
        cs = list(coords)
        bits = 0
        for i, c in enumerate(cs):
            if c & 1:
                bits |= 1 << i
        return cls(len(cs), bits)

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

    def is_zero(self) -> bool:
        return self.bits == 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> Tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def to_tuple(self) -> Tuple[int, ...]:
        return tuple(self)

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))


@dataclass(frozen=True)
class GF2Matrix:
    """Immutable dense matrix over GF(2) with integer bit-set rows."""

    nrows: int
    ncols: int
    rows: Tuple[int, ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0 or len(self.rows) != self.nrows:
            raise DimensionMismatch(
                f"{len(self.rows)} rows supplied for a {self.nrows}x{self.ncols} matrix"
            )
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise DimensionMismatch(
                    f"row {r:#x} does not fit in {self.ncols} columns"
                )

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "GF2Matrix":
        return cls(nrows, ncols, (0,) * nrows)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "GF2Matrix":
        """Build a matrix from an iterable of 0/1 row iterables.

        Args:
            rows: rows listed top to bottom, entries left to right.

        Returns:
            The matrix; an empty iterable gives a 0x0 matrix.
        """
        packed: List[int] = []
        ncols = None
        for row in rows:
            vals = list(row)
            if ncols is None:
                ncols = len(vals)
            elif len(vals) != ncols:
                raise DimensionMismatch("rows have differing lengths")
            bits = 0
            for j, v in enumerate(vals):
                if v & 1:
                    bits |= 1 << j
            packed.append(bits)
        return cls(len(packed), ncols or 0, tuple(packed))

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

    def column(self, j: int) -> GF2Vector:
        if not 0 <= j < self.ncols:
            raise IndexOutOfRange(f"column {j} outside {self.nrows}x{self.ncols}")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r >> j) & 1:
                bits |= 1 << i
        return GF2Vector(self.nrows, bits)

    def transpose(self) -> "GF2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            for j in iter_bits(r):
                cols[j] |= 1 << i
        return GF2Matrix(self.ncols, self.nrows, tuple(cols))

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
    per nonzero entry of ``a``.

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
    out = []
    for ra in a.rows:
        acc = 0
        for j in iter_bits(ra):
            acc ^= b.rows[j]
        out.append(acc)
    return GF2Matrix(a.nrows, b.ncols, tuple(out))


def mat_vec(a: GF2Matrix, v: GF2Vector) -> GF2Vector:
    """Apply ``a`` to a column vector; entry ``i`` is ``<row_i, v>`` mod 2."""
    if a.ncols != v.n:
        raise DimensionMismatch(f"matrix has {a.ncols} columns, vector length {v.n}")
    bits = 0
    for i, r in enumerate(a.rows):
        if (r & v.bits).bit_count() & 1:
            bits |= 1 << i
    return GF2Vector(a.nrows, bits)


def add_row(m: GF2Matrix, src: int, dst: int) -> GF2Matrix:
    """Return a copy of ``m`` with row ``src`` XORed into row ``dst``.

    ``src`` and ``dst`` must be distinct valid row indices; the source
    row itself is left unchanged.
    """
    if not (0 <= src < m.nrows and 0 <= dst < m.nrows):
        raise IndexOutOfRange(f"row indices ({src}, {dst}) outside {m.nrows} rows")
    if src == dst:
        raise IndexOutOfRange("source and destination rows must differ")
    rows = list(m.rows)
    rows[dst] ^= rows[src]
    return GF2Matrix(m.nrows, m.ncols, tuple(rows))


def _echelon_rows(rows: Iterable[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Row echelon form of integer rows by forward elimination.

    Returns (rows, pivot column list): row ``k`` has its leading entry in
    column ``pivots[k]``, and the rows after the last pivot row are zero
    in the first ``ncols`` columns.  The pivot for each step is the first
    remaining row with a nonzero entry in the first possible column.
    """
    work = list(rows)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if (work[i] >> c) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        for i in range(r + 1, len(work)):
            if (work[i] >> c) & 1:
                work[i] ^= prow
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


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
