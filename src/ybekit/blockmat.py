"""Exact matrix kernel: rational matrices, block partitions, and the four
partitioned products (Kronecker, Hadamard, Tracy-Singh, Khatri-Rao) together
with commutation matrices.

Every scalar is a `fractions.Fraction`, so all arithmetic is exact.  Entry
and block indices on the public surface are 1-based, matching the usual
partitioned-matrix conventions.  Storage is sparse: one dict per row maps
0-based columns to the nonzero entries.  The public constructor takes int
dimensions and Fraction or int cells, never a bool, a float or text; kernel
outputs are built by `_matrix`, which trusts its rows.  The CSV reader
builds its rows the same way, with its grammar as the one check on a cell.
`@` takes one of three branches.  When every left row is empty or a lone
1, as in a (partial) permutation, each output row is a copy of a right row.
When every right column is empty or a lone 1, as in a (partial)
permutation or a function matrix, each output row is gathered from the
left row's entries.  Every other product works on integer rows (numerators
over one denominator), as `inverse` does: each right row is packed into one
int per 64 columns, a slot of w bits a column, and each output row is one
integer sum per block.  w is the bit length of the largest sum |f| * max
|numerator| over the rows, plus a sign bit, so no slot overflows.
`inverse` keeps its rows primitive and builds one Fraction per output
entry.  A product with `_ONE`, the only 1 `_frac` returns, is the other
entry itself.  Strip maps are cached.  `csv_partition` reads a CSV text's
shape and strips without parsing a cell, so a caller can bound its work
first.
"""

from __future__ import annotations

import operator
import re
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
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


def _unit_cols(nz: Sequence[dict]) -> bool:
    """Whether every column holds at most one entry, a 1; stops at the first row that fails."""
    seen = set()
    for d in nz:
        if not seen.isdisjoint(d) or any(v != 1 for v in d.values()):
            return False
        seen.update(d)
    return True


def _int_row(d: dict) -> tuple[int, dict]:
    """A row as the lcm of its denominators and the integer numerators over it."""
    den = lcm(*(v.denominator for v in d.values()))
    return den, {j: v.numerator * (den // v.denominator) for j, v in d.items()}


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
        if _unit_cols(other._nz):
            return _matrix(self.rows, other.cols,
                           ({j: a for k, a in d.items() for j in other._nz[k]} for d in self._nz))
        # each output row sums f * (integer row k of other) over one denominator den
        b_dens, b_nums = zip(*map(_int_row, other._nz))
        return _matrix(self.rows, other.cols, _packed_rows(self._nz, b_dens, b_nums))


# Columns per packed int: decoding a slot costs the length of its block.
_PACK_COLUMNS = 64


def _packed_rows(a_nz: Sequence[dict], b_dens: Sequence[int],
                 b_nums: Sequence[dict]) -> list[dict]:
    """`@`'s output rows by Kronecker substitution: integer row k of the right
    operand becomes one int per block of _PACK_COLUMNS columns, w bits a
    column, so each row's sum of f * packed[k] adds whole blocks at C speed.
    No slot overflows: |sum| <= sum |f| * max |numerator| < 2 ** (w - 1)."""
    plan = []
    for d in a_nz:
        den = lcm(*(a.denominator * b_dens[k] for k, a in d.items()))
        plan.append((den, [(a.numerator * (den // (a.denominator * b_dens[k])), k)
                           for k, a in d.items() if b_nums[k]]))
    top = max((abs(n) for nums in b_nums for n in nums.values()), default=0)
    w = (max(sum(abs(f) for f, _ in terms) for _, terms in plan) * top).bit_length() + 1
    packs = []
    for nums in b_nums:
        blocks: dict[int, int] = {}
        for j, n in nums.items():
            b, s = divmod(j, _PACK_COLUMNS)
            blocks[b] = blocks.get(b, 0) + (n << w * s)
        packs.append(blocks)
    mask, sign = (1 << w) - 1, 1 << (w - 1)
    out = []
    for den, terms in plan:
        acc: dict[int, int] = {}
        for f, k in terms:
            for b, p in packs[k].items():
                acc[b] = acc.get(b, 0) + f * p
        row = {}
        for b, x in acc.items():
            j = b * _PACK_COLUMNS
            while x:    # lowest slot first; a negative slot borrows from the next
                if not (v := x & mask):     # skip the zero slots below the lowest set bit
                    s = ((x & -x).bit_length() - 1) // w
                    x >>= s * w
                    j += s
                    v = x & mask
                if v & sign:
                    v -= mask + 1
                row[j] = Fraction(v, den)
                x = (x - v) >> w
                j += 1
        out.append(row)
    return out


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
    """Exact inverse by Gauss-Jordan elimination on the nonzeros of [a | I],
    held as primitive integer rows; one Fraction is built per output entry.

    The pivot is the first nonzero entry in the column: with exact
    arithmetic no magnitude-based pivoting is needed.
    """
    if a.rows != a.cols:
        raise ShapeError("only square matrices can be inverted")
    n = a.rows
    work = [{**nums, n + i: den} for i, (den, nums) in enumerate(map(_int_row, a._nz))]
    for col in range(n):
        piv = next((r for r in range(col, n) if col in work[r]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        pivot_row = work[col]
        p = pivot_row[col]
        for r, row in enumerate(work):
            if r != col and (f := row.get(col)):
                # a nonzero multiple of the rational row: zeros and pivots match
                g = gcd(p, f)
                s, t = p // g, f // g
                if s != 1:
                    work[r] = row = {j: s * x for j, x in row.items()}
                for j, y in pivot_row.items():
                    if x := row.get(j, 0) - t * y:
                        row[j] = x
                    else:
                        del row[j]
                if (h := gcd(*row.values())) != 1:
                    work[r] = {j: x // h for j, x in row.items()}
    return _matrix(n, n, ({j - n: Fraction(x, row[i]) for j, x in row.items() if j >= n}
                          for i, row in enumerate(work)))


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


def _require_fit(partition: BlockPartition, rows: int, cols: int) -> None:
    if sum(partition.row_sizes) != rows:
        raise ShapeError("row partition does not sum to the matrix height")
    if sum(partition.col_sizes) != cols:
        raise ShapeError("column partition does not sum to the matrix width")


@dataclass(frozen=True)
class PartitionedMatrix:
    """A matrix together with a consistent block partition."""

    matrix: Matrix
    partition: BlockPartition

    def __post_init__(self):
        _require_fit(self.partition, self.matrix.rows, self.matrix.cols)

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
# The one check on a CSV cell: its groups, numerator and denominator, build
# the entry, and with a zero denominator outside the grammar that cannot raise.
_ENTRY_RE = re.compile(r"(-?[0-9]{1,%d})(?:/(?=0*[1-9])([0-9]{1,%d}))?" % ((CSV_MAX_DIGITS,) * 2))


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


def _csv_lines(text: str) -> tuple[list[str], BlockPartition | None]:
    """The non-blank rows of CSV text and its header's partition, if any."""
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
    return lines, partition


def _csv_width(lines: list[str]) -> int:
    if len(widths := {ln.count(",") + 1 for ln in lines}) > 1:
        raise ParseError("rows have unequal lengths")
    return widths.pop()


def parse_matrix_csv(text: str) -> tuple[Matrix, BlockPartition | None]:
    """Parse CSV text as written by format_matrix_csv.

    Entries must match -?[0-9]+(/[0-9]+)? with a nonzero denominator and at
    most CSV_MAX_DIGITS digits in each part.  Returns the matrix and the
    declared partition, if any; consistency of the two is the caller's
    concern (see parse_partitioned_csv).
    """
    lines, partition = _csv_lines(text)
    nz = []
    for ln in lines:
        nz.append(row := {})
        for j, tok in enumerate(map(str.strip, ln.split(","))):
            if not (m := _ENTRY_RE.fullmatch(tok)):
                raise ParseError(f"bad matrix entry {reprlib.repr(tok)}")
            if v := Fraction(int(m[1]), int(m[2] or 1)):
                row[j] = _frac(v)
    return _matrix(len(nz), _csv_width(lines), nz), partition   # widths after every token


def csv_partition(text: str) -> BlockPartition:
    """The partition parse_partitioned_csv gives CSV text, read from its
    header, its row count and its row widths before any cell is parsed.  It
    raises what parse_partitioned_csv raises on a bad header, unequal rows or
    a partition that does not fit; cells are not read."""
    lines, partition = _csv_lines(text)
    rows, cols = len(lines), _csv_width(lines)
    if partition is None:
        return BlockPartition((rows,), (cols,))
    _require_fit(partition, rows, cols)
    return partition


def parse_partitioned_csv(text: str) -> PartitionedMatrix:
    """Parse CSV text to a partitioned matrix; a missing header means the
    trivial single-block partition."""
    matrix, partition = parse_matrix_csv(text)
    if partition is None:
        return PartitionedMatrix.single(matrix)
    return PartitionedMatrix(matrix, partition)
