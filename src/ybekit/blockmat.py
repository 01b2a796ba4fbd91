"""Exact matrix kernel: rational matrices, block partitions, and the four
partitioned products (Kronecker, Hadamard, Tracy-Singh, Khatri-Rao) together
with commutation matrices.

Every scalar is a `fractions.Fraction`, so all arithmetic is exact.  Entry
and block indices on the public surface are 1-based, matching the usual
partitioned-matrix conventions.  Storage is sparse: one dict per row maps
0-based columns to the nonzero entries.  The public constructor takes int
dimensions and Fraction or int cells, never a bool, a float or text; kernel
outputs are built by `_matrix`, which trusts its rows.
`@` sums integer numerators over one common denominator per output row.
A product with `_ONE`, the only 1 `_frac` returns, is the other entry itself.
`@` by a (partial) permutation copies or re-keys rows.  Strip maps are cached.
"""

from __future__ import annotations

import operator
import re
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Sequence

from .errors import ParseError, ShapeError, SingularMatrixError, require_ints

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value) -> Fraction:
    # a float would round, and text is for a grammar such as parse_matrix_csv
    if type(value) is int:          # the exact-type test keeps int cells cheap
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        require_ints((value,), f"exact scalar expected, got {type(value).__name__}")
        value = Fraction(value)
    return _ONE if value == 1 else value    # the unit fast paths test `x is _ONE`


def _times(x: Fraction, y: Fraction) -> Fraction:
    return y if x is _ONE else x if y is _ONE else x * y


def _unit_rows(nz: Sequence[dict]) -> list | None:
    """Column of each row's lone 1 (None if empty), or None if some row holds more."""
    unit = all(tuple(d.values()) in ((), (_ONE,)) for d in nz)  # == tries `is` first
    return [next(iter(d), None) for d in nz] if unit else None


def _matrix(rows: int, cols: int, nz: Iterable[dict]) -> "Matrix":
    """Kernel outputs, unchecked: a {column: nonzero} dict per row, shared with no other matrix."""
    if rows < 1 or cols < 1:
        raise ShapeError("matrix dimensions must be positive")
    m = object.__new__(Matrix)
    m.rows, m.cols, m._nz = rows, cols, tuple(nz)
    return m


class Matrix:
    """Immutable sparse matrix of exact rationals.

    `entry(i, j)` is 1-based.  `+`, `-`, `@` and scalar `*` are supported
    and raise ShapeError on mismatched operands.  Instances must be treated
    as immutable values; they hash and compare structurally.
    """

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, rows: int, cols: int, cells: Iterable) -> None:
        require_ints((rows, cols), "matrix dimensions must be integers")
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        data = [_frac(x) for x in cells]
        if len(data) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._nz = tuple({j: v for j, v in enumerate(data[o:o + cols]) if v}
                         for o in range(0, len(data), cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        if not rows or not rows[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("rows have unequal lengths")
        return cls(len(rows), width, [x for r in rows for x in r])

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside a {self.rows}x{self.cols} matrix")
        return self._nz[i - 1].get(j - 1, _ZERO)

    def to_rows(self) -> list[list[Fraction]]:
        """Dense rows, zeros included."""
        out = [[_ZERO] * self.cols for _ in range(self.rows)]
        for row, d in zip(out, self._nz):
            for j, v in d.items():
                row[j] = v
        return out

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for r, d in enumerate(self._nz):
            for c, v in d.items():
                out[c][r] = v
        return _matrix(self.cols, self.rows, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._nz) == (other.rows, other.cols, other._nz)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(d.items()) for d in self._nz)))

    def __repr__(self) -> str:
        rows = "; ".join(",".join(str(x) for x in row) for row in self.to_rows())
        return f"Matrix({self.rows}x{self.cols}: {rows})"

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, operator.sub, "subtraction")

    def _combine(self, other: "Matrix", op, what: str) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"matrix {what} needs equal dimensions")
        return _matrix(self.rows, self.cols, (
            {j: w for j in da.keys() | db.keys() if (w := op(da.get(j, 0), db.get(j, 0)))}
            for da, db in zip(self._nz, other._nz)))

    def __neg__(self) -> "Matrix":
        return -1 * self

    def __rmul__(self, lam) -> "Matrix":
        lam = _frac(lam)
        return _matrix(self.rows, self.cols,
                       ({j: lam * v for j, v in d.items()} if lam else {} for d in self._nz))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if (sel := _unit_rows(self._nz)) is not None:
            return _matrix(self.rows, other.cols,
                           ({} if k is None else other._nz[k].copy() for k in sel))
        if (cols := _unit_rows(other._nz)) and len(set(cols) - {None}) == len(cols):
            return _matrix(self.rows, other.cols,
                           ({cols[k]: a for k, a in d.items()} for d in self._nz))
        # each row of other as integer numerators over the lcm of its
        # denominators; each output row then sums ints over one denominator
        b_rows = []
        for d in other._nz:
            den = lcm(*(v.denominator for v in d.values()))
            b_rows.append((den, [(j, v.numerator * (den // v.denominator))
                                 for j, v in d.items()]))
        out = []
        for d in self._nz:
            terms = [(a, b_rows[k]) for k, a in d.items() if b_rows[k][1]]
            den = lcm(*(a.denominator * bden for a, (bden, _) in terms))
            acc: dict[int, int] = {}
            for a, (bden, nums) in terms:
                f = a.numerator * (den // (a.denominator * bden))
                for j, n in nums:
                    acc[j] = acc.get(j, 0) + f * n
            out.append({j: Fraction(n, den) for j, n in acc.items() if n})
        return _matrix(self.rows, other.cols, out)


def zeros(rows: int, cols: int) -> Matrix:
    return _matrix(rows, cols, ({} for _ in range(rows)))


def _function_matrix(targets: Sequence[int]) -> Matrix:
    """0/1 matrix of a map on 0..n-1: column i has its single 1 at row
    targets[i]."""
    rows = [{} for _ in targets]
    for i, t in enumerate(targets):
        rows[t][i] = _ONE
    return _matrix(len(rows), len(rows), rows)


def identity(n: int) -> Matrix:
    return _function_matrix(range(n))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination on the nonzeros of [a | I];
    an entry that cancels to zero is deleted at once.

    The pivot is the first nonzero entry in the column: with exact
    arithmetic no magnitude-based pivoting is needed.
    """
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    n = a.rows
    work = [{**row, n + i: _ONE} for i, row in enumerate(a._nz)]
    for col in range(n):
        piv = next((r for r in range(col, n) if col in work[r]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        if p != 1:
            work[col] = {j: x / p for j, x in work[col].items()}
        pivot_row = work[col]
        for r, row in enumerate(work):
            f = row.get(col)
            if r != col and f:
                for j, y in pivot_row.items():
                    if x := row.get(j, 0) - f * y:
                        row[j] = x
                    else:
                        del row[j]
    return _matrix(n, n, ({j - n: v for j, v in row.items() if j >= n} for row in work))


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the (i, j) block of the result is a[i,j] * b."""
    return _strip_product(PartitionedMatrix.single(a), PartitionedMatrix.single(b)).matrix


def hadamard(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise product; both operands must have the same dimensions."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("entrywise product needs equal dimensions")
    return _matrix(a.rows, a.cols, ({j: x * y for j, x in da.items() if (y := db.get(j))}
                                    for da, db in zip(a._nz, b._nz)))


def commutation_matrix(m: int, n: int) -> Matrix:
    """Permutation matrix of order mn sending entry stacks of an m x n array
    to the stacks of its transpose: the 1 in column (j-1)m + i sits at row
    (i-1)n + j."""
    if m < 1 or n < 1:
        raise ShapeError("commutation matrix orders must be positive")
    return _function_matrix([(c % m) * n + c // m for c in range(m * n)])


def permutation_matrix(image: Sequence[int]) -> Matrix:
    """Permutation matrix P with P e_i = e_image[i-1] (1-based images)."""
    if sorted(image) != list(range(1, len(image) + 1)):
        raise ValueError("image is not a bijection of 1..n")
    return _function_matrix([v - 1 for v in image])


def is_permutation_matrix(a: Matrix) -> bool:
    # square, one nonzero per row equal to 1, and no column hit twice
    return a.rows == a.cols and len(set(_unit_rows(a._nz) or ()) - {None}) == a.rows


@dataclass(frozen=True)
class BlockPartition:
    """Sizes of the row and column strips that cut a matrix into blocks."""

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_sizes", tuple(self.row_sizes))
        object.__setattr__(self, "col_sizes", tuple(self.col_sizes))
        require_ints(self.row_sizes + self.col_sizes, "partition strip sizes must be integers")
        if not self.row_sizes or not self.col_sizes:
            raise ShapeError("a partition needs at least one row and one column strip")
        if any(s < 1 for s in self.row_sizes) or any(s < 1 for s in self.col_sizes):
            raise ShapeError("partition strip sizes must be positive")

    def transpose(self) -> "BlockPartition":
        return BlockPartition(self.col_sizes, self.row_sizes)


@dataclass(frozen=True)
class PartitionedMatrix:
    """A matrix together with a consistent block partition."""

    matrix: Matrix
    partition: BlockPartition

    def __post_init__(self):
        if sum(self.partition.row_sizes) != self.matrix.rows:
            raise ShapeError("row partition does not sum to the matrix height")
        if sum(self.partition.col_sizes) != self.matrix.cols:
            raise ShapeError("column partition does not sum to the matrix width")

    @classmethod
    def single(cls, matrix: Matrix) -> "PartitionedMatrix":
        """The trivial partition: one block holding the whole matrix."""
        return cls(matrix, BlockPartition((matrix.rows,), (matrix.cols,)))

    @classmethod
    def uniform(cls, matrix: Matrix, row_block: int, col_block: int) -> "PartitionedMatrix":
        if matrix.rows % row_block or matrix.cols % col_block:
            raise ShapeError("uniform block sizes must divide the matrix dimensions")
        return cls(matrix, BlockPartition((row_block,) * (matrix.rows // row_block),
                                          (col_block,) * (matrix.cols // col_block)))

    @property
    def n_block_rows(self) -> int:
        return len(self.partition.row_sizes)

    @property
    def n_block_cols(self) -> int:
        return len(self.partition.col_sizes)

    def block(self, i: int, j: int) -> Matrix:
        """1-based block extraction."""
        rs, cs = self.partition.row_sizes, self.partition.col_sizes
        if not (1 <= i <= len(rs) and 1 <= j <= len(cs)):
            raise IndexError(f"block ({i},{j}) outside a {len(rs)}x{len(cs)} grid")
        r0, c0 = sum(rs[:i - 1]), sum(cs[:j - 1])
        h, w = rs[i - 1], cs[j - 1]
        return _matrix(h, w, ({c - c0: v for c, v in d.items() if c0 <= c < c0 + w}
                              for d in self.matrix._nz[r0:r0 + h]))

    def transpose(self) -> "PartitionedMatrix":
        return PartitionedMatrix(self.matrix.transpose(), self.partition.transpose())


@lru_cache(maxsize=256)
def _strip_map(sa: tuple[int, ...], sb: tuple[int, ...], diagonal: bool):
    """Product position of each (A index, B index) pair along one axis, and
    the product's strip sizes, as cached tuples.  Strip pairs (i, k) run with
    i outermost, and so do the index pairs inside each (Tracy & Singh, 1972).
    With `diagonal` only the pairs i == k are kept; the others map to None."""
    a_at = [(i, u) for i, p in enumerate(sa) for u in range(p)]
    b_at = [(k, v) for k, q in enumerate(sb) for v in range(q)]
    pairs = [(i, k) for i in range(len(sa)) for k in range(len(sb))
             if not diagonal or i == k]
    sizes = [sa[i] * sb[k] for i, k in pairs]
    start = dict(zip(pairs, accumulate(sizes, initial=0)))
    pos = tuple(tuple(start[i, k] + u * sb[k] + v if (i, k) in start else None
                      for k, v in b_at) for i, u in a_at)
    return pos, tuple(sizes)


def _strip_product(a: PartitionedMatrix, b: PartitionedMatrix,
                   diagonal: bool = False) -> PartitionedMatrix:
    """Kronecker, Tracy-Singh and Khatri-Rao over the nonzeros: each product
    of two nonzeros lands where the strip maps send its row and column pairs."""
    rpos, rsizes = _strip_map(a.partition.row_sizes, b.partition.row_sizes, diagonal)
    cpos, csizes = _strip_map(a.partition.col_sizes, b.partition.col_sizes, diagonal)
    out = [{} for _ in range(sum(rsizes))]
    for da, rp in zip(a.matrix._nz, rpos):
        for db, row in zip(b.matrix._nz, rp):
            if row is not None:
                out[row].update({cpos[c][t]: _times(x, y) for c, x in da.items()
                                 for t, y in db.items() if cpos[c][t] is not None})
    return PartitionedMatrix(_matrix(len(out), sum(csizes), out), BlockPartition(rsizes, csizes))


def tracy_singh(a: PartitionedMatrix, b: PartitionedMatrix) -> PartitionedMatrix:
    """Blockwise Kronecker product of two partitioned matrices.

    The result block at grid position ((i,k),(j,l)) is A_ij (x) B_kl, with
    the A index outermost: block rows are ordered (i=1,k=1), (i=1,k=2), ...
    and block columns likewise.  With both inputs trivially partitioned this
    reduces to the plain Kronecker product.
    """
    return _strip_product(a, b)


def khatri_rao(a: PartitionedMatrix, b: PartitionedMatrix) -> Matrix:
    """Blockwise diagonal Kronecker product: block (i, j) is A_ij (x) B_ij,
    the diagonal strip pairs of the Tracy-Singh product.

    Both inputs must be cut into block grids of the same shape.
    """
    if (a.n_block_rows, a.n_block_cols) != (b.n_block_rows, b.n_block_cols):
        raise ShapeError("block grids must have the same shape")
    return _strip_product(a, b, diagonal=True).matrix


_PARTITION_RE = re.compile(
    r"^#\s*partition\s+rows=([0-9]+(?:,[0-9]+)*)\s+cols=([0-9]+(?:,[0-9]+)*)\s*$")

# Digits allowed in a CSV numerator or denominator.  A product entry
# multiplies two input entries, so it stays within CPython's 4300-digit cap
# on int-to-str conversion when written back out.
CSV_MAX_DIGITS = 2000
# Cells the CLI will compute and write for one output matrix.
MAX_OUTPUT_CELLS = 10**7
# With a zero denominator outside the grammar, Fraction(entry) cannot raise.
_ENTRY_RE = re.compile(r"-?[0-9]{1,%d}(/(?=0*[1-9])[0-9]{1,%d})?" % ((CSV_MAX_DIGITS,) * 2))


def format_matrix_csv(matrix: Matrix, partition: BlockPartition | None = None) -> str:
    """Matrix as CSV text, entries as exact fraction strings, optional
    leading `# partition rows=... cols=...` header."""
    lines = []
    if partition is not None:
        lines.append("# partition rows=%s cols=%s" % (
            ",".join(str(s) for s in partition.row_sizes),
            ",".join(str(s) for s in partition.col_sizes)))
    for row in matrix.to_rows():
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> tuple[Matrix, BlockPartition | None]:
    """Parse CSV text as written by format_matrix_csv.

    Entries must match -?[0-9]+(/[0-9]+)? with a nonzero denominator and at
    most CSV_MAX_DIGITS digits in each part.  Returns the matrix and the
    declared partition, if any; consistency of the two is the caller's
    concern (see parse_partitioned_csv).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    partition = None
    if lines and lines[0].lstrip().startswith("#"):
        header = lines.pop(0)
        m = _PARTITION_RE.match(header.strip())
        if not m:
            raise ParseError(f"bad partition header: {header!r}")
        try:
            partition = BlockPartition(tuple(int(s) for s in m.group(1).split(",")),
                                       tuple(int(s) for s in m.group(2).split(",")))
        except ValueError as exc:
            raise ParseError(f"bad partition header: {exc}") from exc
    if not lines:
        raise ParseError("no matrix rows found")
    rows = [[tok.strip() for tok in ln.split(",")] for ln in lines]
    if bad := [tok for row in rows for tok in row if not _ENTRY_RE.fullmatch(tok)]:
        raise ParseError(f"bad matrix entry {reprlib.repr(bad[0])}")
    try:
        return Matrix.from_rows([[Fraction(tok) for tok in row] for row in rows]), partition
    except ShapeError as exc:       # rows of unequal lengths
        raise ParseError(str(exc)) from exc


def parse_partitioned_csv(text: str) -> PartitionedMatrix:
    """Parse CSV text to a partitioned matrix; a missing header means the
    trivial single-block partition."""
    matrix, partition = parse_matrix_csv(text)
    if partition is None:
        return PartitionedMatrix.single(matrix)
    return PartitionedMatrix(matrix, partition)
