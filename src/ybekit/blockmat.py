"""Exact matrix kernel: rational matrices, block partitions, and the four
partitioned products (Kronecker, Hadamard, Tracy-Singh, Khatri-Rao) together
with commutation matrices.

Every scalar is a `fractions.Fraction`, so all arithmetic is exact.  Entry
and block indices on the public surface are 1-based, matching the usual
partitioned-matrix conventions; storage is row-major internally.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ParseError, ShapeError, SingularMatrixError

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(value) -> Fraction:
    # floats are rejected: binary rounding would silently break exactness
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


class Matrix:
    """Immutable dense matrix of exact rationals.

    `entry(i, j)` is 1-based.  `+`, `-`, `@` and scalar `*` are supported
    and raise ShapeError on mismatched operands.  Instances must be treated
    as immutable values; they hash and compare structurally.
    """

    __slots__ = ("rows", "cols", "_cells")

    def __init__(self, rows: int, cols: int, cells: Iterable) -> None:
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        data = tuple(_frac(x) for x in cells)
        if len(data) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._cells = data

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
        return self._cells[(i - 1) * self.cols + (j - 1)]

    def to_rows(self) -> list[list[Fraction]]:
        c = self.cols
        return [list(self._cells[r * c:(r + 1) * c]) for r in range(self.rows)]

    def row_cells(self, r0: int) -> tuple[Fraction, ...]:
        """0-based internal row slice."""
        c = self.cols
        return self._cells[r0 * c:(r0 + 1) * c]

    def transpose(self) -> "Matrix":
        cells = [self._cells[r * self.cols + c]
                 for c in range(self.cols) for r in range(self.rows)]
        return Matrix(self.cols, self.rows, cells)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._cells) == (other.rows, other.cols, other._cells)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._cells))

    def __repr__(self) -> str:
        rows = "; ".join(",".join(str(x) for x in row) for row in self.to_rows())
        return f"Matrix({self.rows}x{self.cols}: {rows})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition needs equal dimensions")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self._cells, other._cells)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix subtraction needs equal dimensions")
        return Matrix(self.rows, self.cols,
                      [a - b for a, b in zip(self._cells, other._cells)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._cells])

    def __rmul__(self, lam) -> "Matrix":
        lam = _frac(lam)
        return Matrix(self.rows, self.cols, [lam * a for a in self._cells])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # skip zero terms: permutation and other sparse factors are the
        # common case here and the skip makes those products near-linear
        b_nz = []
        bc = other.cols
        for k in range(other.rows):
            row = other._cells[k * bc:(k + 1) * bc]
            b_nz.append([(j, v) for j, v in enumerate(row) if v])
        out = [_ZERO] * (self.rows * bc)
        ac = self.cols
        for r in range(self.rows):
            base = r * ac
            obase = r * bc
            for k in range(ac):
                a = self._cells[base + k]
                if not a:
                    continue
                for j, v in b_nz[k]:
                    out[obase + j] += a * v
        return Matrix(self.rows, bc, out)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [_ZERO] * (rows * cols))


def identity(n: int) -> Matrix:
    cells = [_ZERO] * (n * n)
    for i in range(n):
        cells[i * n + i] = _ONE
    return Matrix(n, n, cells)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination.

    The pivot is the first nonzero entry in the column: with exact
    arithmetic no magnitude-based pivoting is needed.
    """
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    n = a.rows
    work = a.to_rows()
    inv = identity(n).to_rows()
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        p = work[col][col]
        if p != 1:
            work[col] = [x / p for x in work[col]]
            inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if not f:
                continue
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Matrix.from_rows(inv)


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: the (i, j) block of the result is a[i,j] * b."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    cells = [_ZERO] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            s = a._cells[i * a.cols + j]
            if not s:
                continue
            for k in range(b.rows):
                dst = (i * b.rows + k) * cols + j * b.cols
                src = k * b.cols
                for l in range(b.cols):
                    v = b._cells[src + l]
                    if v:
                        cells[dst + l] = s * v
    return Matrix(rows, cols, cells)


def hadamard(a: Matrix, b: Matrix) -> Matrix:
    """Entrywise product; both operands must have the same dimensions."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("entrywise product needs equal dimensions")
    return Matrix(a.rows, a.cols, [x * y for x, y in zip(a._cells, b._cells)])


def commutation_matrix(m: int, n: int) -> Matrix:
    """Permutation matrix of order mn sending entry stacks of an m x n array
    to the stacks of its transpose: the 1 in column (j-1)m + i sits at row
    (i-1)n + j."""
    if m < 1 or n < 1:
        raise ShapeError("commutation matrix orders must be positive")
    cells = [_ZERO] * (m * n * m * n)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cells[((i - 1) * n + j - 1) * (m * n) + (j - 1) * m + i - 1] = _ONE
    return Matrix(m * n, m * n, cells)


def permutation_matrix(image: Sequence[int]) -> Matrix:
    """Permutation matrix P with P e_i = e_image[i-1] (1-based images)."""
    n = len(image)
    if sorted(image) != list(range(1, n + 1)):
        raise ValueError("image is not a bijection of 1..n")
    cells = [_ZERO] * (n * n)
    for i, v in enumerate(image):
        cells[(v - 1) * n + i] = _ONE
    return Matrix(n, n, cells)


def is_permutation_matrix(a: Matrix) -> bool:
    if a.rows != a.cols:
        return False
    n = a.rows
    for r in range(n):
        row = a.row_cells(r)
        if sum(1 for v in row if v == 1) != 1 or any(v not in (0, 1) for v in row):
            return False
    for c in range(n):
        if sum(1 for r in range(n) if a._cells[r * n + c]) != 1:
            return False
    return True


@dataclass(frozen=True)
class BlockPartition:
    """Sizes of the row and column strips that cut a matrix into blocks."""

    row_sizes: tuple[int, ...]
    col_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_sizes", tuple(int(s) for s in self.row_sizes))
        object.__setattr__(self, "col_sizes", tuple(int(s) for s in self.col_sizes))
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
        cells = []
        for r in range(r0, r0 + h):
            cells.extend(self.matrix._cells[r * self.matrix.cols + c0:
                                            r * self.matrix.cols + c0 + w])
        return Matrix(h, w, cells)

    def block_grid(self) -> list[list[Matrix]]:
        return [[self.block(i, j) for j in range(1, self.n_block_cols + 1)]
                for i in range(1, self.n_block_rows + 1)]

    def transpose(self) -> "PartitionedMatrix":
        return PartitionedMatrix(self.matrix.transpose(), self.partition.transpose())


def block(p: PartitionedMatrix, i: int, j: int) -> Matrix:
    return p.block(i, j)


def assemble_blocks(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """Stitch a rectangular grid of blocks back into one matrix."""
    if not grid or not grid[0]:
        raise ShapeError("empty block grid")
    heights = [row[0].rows for row in grid]
    widths = [blk.cols for blk in grid[0]]
    for row in grid:
        if len(row) != len(widths):
            raise ShapeError("ragged block grid")
        if any(blk.rows != row[0].rows for blk in row):
            raise ShapeError("blocks in one grid row have unequal heights")
        if any(blk.cols != w for blk, w in zip(row, widths)):
            raise ShapeError("blocks in one grid column have unequal widths")
    cells = []
    for bi, row in enumerate(grid):
        for r in range(heights[bi]):
            for blk in row:
                cells.extend(blk.row_cells(r))
    return Matrix(sum(heights), sum(widths), cells)


def tracy_singh(a: PartitionedMatrix, b: PartitionedMatrix) -> PartitionedMatrix:
    """Blockwise Kronecker product of two partitioned matrices.

    The result block at grid position ((i,k),(j,l)) is A_ij (x) B_kl, with
    the A index outermost: block rows are ordered (i=1,k=1), (i=1,k=2), ...
    and block columns likewise.  With both inputs trivially partitioned this
    reduces to the plain Kronecker product.
    """
    ag, bg = a.block_grid(), b.block_grid()
    grid = []
    for arow in ag:
        for brow in bg:
            grid.append([kronecker(ab, bb) for ab in arow for bb in brow])
    part = BlockPartition(
        tuple(ra * rb for ra in a.partition.row_sizes for rb in b.partition.row_sizes),
        tuple(ca * cb for ca in a.partition.col_sizes for cb in b.partition.col_sizes))
    return PartitionedMatrix(assemble_blocks(grid), part)


def khatri_rao(a: PartitionedMatrix, b: PartitionedMatrix) -> Matrix:
    """Blockwise diagonal Kronecker product: block (i, j) is A_ij (x) B_ij.

    Both inputs must be cut into block grids of the same shape.
    """
    if (a.n_block_rows, a.n_block_cols) != (b.n_block_rows, b.n_block_cols):
        raise ShapeError("block grids must have the same shape")
    ag, bg = a.block_grid(), b.block_grid()
    grid = [[kronecker(ab, bb) for ab, bb in zip(arow, brow)]
            for arow, brow in zip(ag, bg)]
    return assemble_blocks(grid)


_PARTITION_RE = re.compile(r"^#\s*partition\s+rows=([0-9][0-9,]*)\s+cols=([0-9][0-9,]*)\s*$")

# Digits allowed in a CSV numerator or denominator.  A product entry
# multiplies two input entries, so it stays within CPython's 4300-digit cap
# on int-to-str conversion when written back out.
CSV_MAX_DIGITS = 2000
_ENTRY_RE = re.compile(r"-?[0-9]{1,%d}(/[0-9]{1,%d})?" % (CSV_MAX_DIGITS, CSV_MAX_DIGITS))


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

    Entries must match -?[0-9]+(/[0-9]+)? with at most CSV_MAX_DIGITS digits
    in the numerator and in the denominator.  Returns the matrix and the
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
        except (ValueError, ShapeError) as exc:
            raise ParseError(f"bad partition header: {exc}") from exc
    if not lines:
        raise ParseError("no matrix rows found")
    rows = []
    for ln in lines:
        entries = []
        for tok in ln.split(","):
            tok = tok.strip()
            try:
                if not _ENTRY_RE.fullmatch(tok):
                    raise ValueError("entry outside the CSV grammar")
                entries.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad matrix entry {reprlib.repr(tok)}") from exc
        rows.append(entries)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("rows have unequal lengths")
    return Matrix.from_rows(rows), partition


def parse_partitioned_csv(text: str) -> PartitionedMatrix:
    """Parse CSV text to a partitioned matrix; a missing header means the
    trivial single-block partition."""
    matrix, partition = parse_matrix_csv(text)
    if partition is None:
        return PartitionedMatrix.single(matrix)
    return PartitionedMatrix(matrix, partition)
