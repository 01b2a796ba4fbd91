"""Exact matrix kernel: products, partitions, commutation matrices, CSV."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dense_inverse,
    random_invertible,
    random_matrix,
    random_partitioned,
    random_sizes,
    sample_a,
    sample_b,
    sparse_square_matrices,
)
from ybekit.blockmat import (
    _ONE,
    CSV_MAX_DIGITS,
    BlockPartition,
    Matrix,
    PartitionedMatrix,
    commutation_matrix,
    format_matrix_csv,
    hadamard,
    identity,
    inverse,
    is_permutation_matrix,
    khatri_rao,
    kronecker,
    parse_matrix_csv,
    parse_partitioned_csv,
    permutation_matrix,
    tracy_singh,
    zeros,
    _strip_map,
)
from ybekit.errors import ParseError, ShapeError, SingularMatrixError

F = Fraction
rows = Matrix.from_rows


def test_entry_is_one_based():
    m = rows([[1, 2], [3, 4]])
    assert m.entry(1, 1) == 1
    assert m.entry(2, 1) == 3
    assert m.entry(2, 2) == 4


def test_from_rows_rejects_ragged():
    with pytest.raises(ShapeError):
        rows([[1, 2], [3]])
    with pytest.raises(ShapeError, match=r"^matrix needs at least one row and one column$"):
        rows([])
    with pytest.raises(ShapeError, match=r"^expected 4 entries, got 3$"):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeError, match=r"^matrix dimensions must be positive$"):
        Matrix(0, 2, [])


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        rows([[0.5]])
    with pytest.raises(TypeError):
        identity(2) + rows([[1, 0], [0, 1.0]])


# outside the CSV grammar: mostly Fraction's own syntax, or over the digit cap
ENTRIES_OUTSIDE_GRAMMAR = [
    "1e300000", "1e10000000", "1" * 2001, "1/" + "7" * 2001, "1.5", "+1",
    "1e3", "1_000", "1/-2", "\u0661"]


@pytest.mark.parametrize("cell", ENTRIES_OUTSIDE_GRAMMAR + ["1/2", "1", " +1_000 ", True])
def test_matrix_cells_are_never_text_or_bools(cell):
    # text is read by parse_matrix_csv's grammar, never by the constructor
    start = time.perf_counter()
    with pytest.raises(TypeError, match=r"^exact scalar expected, got (str|bool)$"):
        Matrix(1, 1, [cell])
    assert time.perf_counter() - start < 1.0


def test_matrix_dimensions_and_scalars_are_ints():
    m = identity(2)
    for shape in [(True, 1), (1, True), (2.0, 2), ("2", 2)]:
        with pytest.raises(TypeError, match=r"^matrix dimensions must be integers$"):
            Matrix(*shape, [1, 0])
    for lam in [True, "2", 0.5]:
        with pytest.raises(TypeError):
            lam * m
    assert 2 * m == m + m and F(1, 2) * m == rows([[F(1, 2), 0], [0, F(1, 2)]])


def test_entry_range_errors():
    m = identity(2)
    for bad in [(0, 1), (1, 0), (3, 1), (1, 3)]:
        with pytest.raises(IndexError):
            m.entry(*bad)


def test_equality_and_hash():
    a = rows([[1, F(1, 2)], [0, 2]])
    b = rows([[1, F(2, 4)], [0, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != rows([[1, F(1, 2)]])
    assert a != 1 and a.__eq__(1) is NotImplemented
    assert repr(a) == "Matrix(2x2: 1,1/2; 0,2)"


def test_add_sub_neg_scale():
    a = rows([[1, 2], [3, 4]])
    b = rows([[0, 1], [1, 0]])
    assert a + b == rows([[1, 3], [4, 4]])
    assert a - b == rows([[1, 1], [2, 4]])
    assert -a == rows([[-1, -2], [-3, -4]])
    assert F(1, 2) * a == rows([[F(1, 2), 1], [F(3, 2), 2]])
    assert 3 * b == rows([[0, 3], [3, 0]])


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        identity(2) + identity(3)
    with pytest.raises(TypeError,
                       match=r"^unsupported operand type\(s\) for \+: 'Matrix' and 'int'$"):
        identity(2) + 1


def test_matmul_frozen():
    a = rows([[1, 2], [3, 4]])
    b = rows([[5, 6], [7, 8]])
    assert a @ b == rows([[19, 22], [43, 50]])
    assert a @ identity(2) == a
    assert identity(2) @ a == a
    with pytest.raises(ShapeError):
        a @ identity(3)
    with pytest.raises(TypeError,
                       match=r"^unsupported operand type\(s\) for @: 'Matrix' and 'int'$"):
        a @ 2


def test_matmul_associative_seeded():
    rng = random.Random(11)
    for _ in range(10):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 4)
        c = random_matrix(rng, 4, 2)
        assert (a @ b) @ c == a @ (b @ c)


def test_transpose():
    a = rows([[1, 2, 3], [4, 5, 6]])
    assert a.transpose() == rows([[1, 4], [2, 5], [3, 6]])
    assert a.transpose().transpose() == a


def test_zeros_identity():
    assert zeros(2, 3) == rows([[0, 0, 0], [0, 0, 0]])
    assert identity(3) == rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeError, match=r"^matrix dimensions must be positive$"):
        zeros(0, 1)


def test_inverse_basics():
    assert inverse(identity(4)) == identity(4)
    d = rows([[2, 0], [0, F(1, 3)]])
    assert inverse(d) == rows([[F(1, 2), 0], [0, 3]])
    rng = random.Random(7)
    for _ in range(10):
        m = random_invertible(rng, 4)
        assert m @ inverse(m) == identity(4)
        assert inverse(m) @ m == identity(4)


def test_inverse_errors():
    with pytest.raises(SingularMatrixError):
        inverse(rows([[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        inverse(zeros(2, 3))


def test_inverse_of_permutation_is_transpose():
    rng = random.Random(3)
    for _ in range(5):
        img = list(range(1, 6))
        rng.shuffle(img)
        p = permutation_matrix(tuple(img))
        assert inverse(p) == p.transpose()


@given(sparse_square_matrices())
@settings(deadline=None, max_examples=300)
def test_inverse_matches_dense_reference(drawn):
    m, singular = drawn
    try:
        expected = dense_inverse(m)
    except SingularMatrixError:
        assert singular is not False
        with pytest.raises(SingularMatrixError):
            inverse(m)
        return
    assert singular is not True
    got = inverse(m)
    assert got == expected and hash(got) == hash(expected)
    assert all(0 not in row.values() for row in got._nz)


def test_kronecker_frozen():
    a = rows([[1, 2], [3, 4]])
    b = rows([[0, 1], [1, 0]])
    assert kronecker(a, b) == rows([
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ])
    assert kronecker(identity(2), identity(3)) == identity(6)


def test_kronecker_entry_formula():
    # entry ((i-1)p+k, (j-1)q+l) of A(x)B equals a_ij * b_kl
    rng = random.Random(23)
    for _ in range(5):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 2)
        k = kronecker(a, b)
        assert k.rows == 6 and k.cols == 6
        for i in range(1, 3):
            for j in range(1, 4):
                for p in range(1, 4):
                    for q in range(1, 3):
                        got = k.entry((i - 1) * 3 + p, (j - 1) * 2 + q)
                        assert got == a.entry(i, j) * b.entry(p, q)


def test_hadamard():
    a = rows([[1, 2], [3, 4]])
    b = rows([[2, 0], [1, 5]])
    assert hadamard(a, b) == rows([[2, 0], [3, 20]])
    assert hadamard(a, b) == hadamard(b, a)
    with pytest.raises(ShapeError):
        hadamard(a, identity(3))


def test_commutation_matrix_2_3_frozen():
    assert commutation_matrix(2, 3) == rows([
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ])
    with pytest.raises(ShapeError, match=r"^commutation matrix orders must be positive$"):
        commutation_matrix(0, 2)


def test_commutation_matrix_sum_oracle():
    # K_mn = sum of E_ij (x) E_ij^T over the m x n unit matrices
    for m in range(1, 4):
        for n in range(1, 4):
            total = zeros(m * n, m * n)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    e = zeros(m, n).to_rows()
                    e[i - 1][j - 1] = F(1)
                    eij = rows(e)
                    total = total + kronecker(eij, eij.transpose())
            assert commutation_matrix(m, n) == total


def test_commutation_matrix_swaps_tensor_factors():
    # K_mn maps x (x) y to y (x) x for x of size n, y of size m
    rng = random.Random(5)
    for m, n in [(2, 3), (3, 2), (3, 3), (1, 4)]:
        x = random_matrix(rng, n, 1)
        y = random_matrix(rng, m, 1)
        assert commutation_matrix(m, n) @ kronecker(x, y) == kronecker(y, x)


def test_commutation_matrix_vec_identity():
    # K_mn applied to the column-stacked vec of an m x n matrix stacks the transpose
    rng = random.Random(6)
    for m, n in [(2, 3), (3, 4)]:
        a = random_matrix(rng, m, n)
        vec = Matrix(m * n, 1, [a.entry(i, j)
                                for j in range(1, n + 1)
                                for i in range(1, m + 1)])
        vec_t = Matrix(m * n, 1, [a.entry(i, j)
                                  for i in range(1, m + 1)
                                  for j in range(1, n + 1)])
        assert commutation_matrix(m, n) @ vec == vec_t


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
@settings(deadline=None)
def test_commutation_matrix_properties(m, n):
    k = commutation_matrix(m, n)
    assert is_permutation_matrix(k)
    assert k.transpose() == commutation_matrix(n, m)
    assert k @ commutation_matrix(n, m) == identity(m * n)
    if m == 1 or n == 1:
        assert k == identity(m * n)


def test_permutation_matrix_frozen():
    p = permutation_matrix((2, 3, 1))
    e1 = Matrix(3, 1, [F(1), F(0), F(0)])
    assert p @ e1 == Matrix(3, 1, [F(0), F(1), F(0)])
    with pytest.raises(ValueError):
        permutation_matrix((1, 1, 3))


def test_is_permutation_matrix():
    assert is_permutation_matrix(identity(4))
    assert is_permutation_matrix(commutation_matrix(2, 3))
    assert not is_permutation_matrix(rows([[1, 1], [0, 0]]))
    assert not is_permutation_matrix(rows([[1, 0], [0, 2]]))
    assert not is_permutation_matrix(zeros(2, 2))
    assert not is_permutation_matrix(zeros(2, 3))


def test_block_partition_validation():
    with pytest.raises(ShapeError):
        BlockPartition((2, 0), (1,))
    with pytest.raises(ShapeError):
        BlockPartition((), (1,))
    p = BlockPartition((2, 1), (1, 2))
    assert p.transpose() == BlockPartition((1, 2), (2, 1))
    for rows, cols in [((1.5, 2.9), (1,)), ((2.0,), (1,)), ((2,), (True,)), ((2,), ("1",))]:
        with pytest.raises(TypeError, match=r"^partition strip sizes must be integers$"):
            BlockPartition(rows, cols)


def test_partitioned_matrix_validation():
    with pytest.raises(ShapeError):
        PartitionedMatrix(identity(3), BlockPartition((2, 2), (3,)))
    with pytest.raises(ShapeError, match=r"^column partition does not sum to the matrix width$"):
        PartitionedMatrix(identity(3), BlockPartition((3,), (2, 2)))
    with pytest.raises(ShapeError,
                       match=r"^uniform block sizes must divide the matrix dimensions$"):
        PartitionedMatrix.uniform(identity(3), 2, 2)
    single = PartitionedMatrix.single(identity(3))
    assert single.partition == BlockPartition((3,), (3,))
    uni = PartitionedMatrix.uniform(identity(4), 2, 2)
    assert uni.partition == BlockPartition((2, 2), (2, 2))
    assert uni.n_block_rows == 2 and uni.n_block_cols == 2


def test_block_extraction_frozen():
    a = sample_a()
    assert a.block(1, 2) == rows([[0, 1], [-1, 0]])
    assert a.block(2, 1) == rows([[0, 1], [-1, 0]])
    b = sample_b()
    assert b.block(2, 2) == rows([[F(3, 2), 0], [0, 2]])
    with pytest.raises(IndexError):
        a.block(3, 1)
    with pytest.raises(IndexError):
        a.block(1, 0)


def test_tracy_singh_single_blocks_is_kronecker():
    rng = random.Random(29)
    a = random_matrix(rng, 2, 3)
    b = random_matrix(rng, 3, 2)
    ts = tracy_singh(PartitionedMatrix.single(a), PartitionedMatrix.single(b))
    assert ts.matrix == kronecker(a, b)
    assert ts.partition == BlockPartition((6,), (6,))


def test_tracy_singh_frozen_block():
    # the 2,2/2,2-partitioned order-4 pair: block (2,4) of the product
    ts = tracy_singh(sample_a(), sample_b())
    assert ts.partition.row_sizes == (4, 4, 4, 4)
    assert ts.partition.col_sizes == (4, 4, 4, 4)
    expected = rows([
        [0, 0, F(3, 2), 0],
        [0, 0, 0, 2],
        [F(-3, 2), 0, 0, 0],
        [0, -2, 0, 0],
    ])
    assert ts.block(2, 4) == expected
    assert kronecker(sample_a().block(1, 2), sample_b().block(2, 2)) == expected


def test_tracy_singh_block_scan():
    # every product block ((i,k),(j,l)) equals A_ij (x) B_kl, A-index outermost
    rng = random.Random(31)
    for _ in range(4):
        a = random_partitioned(rng, random_sizes(rng), random_sizes(rng))
        b = random_partitioned(rng, random_sizes(rng), random_sizes(rng))
        ts = tracy_singh(a, b)
        u = b.n_block_rows
        v = b.n_block_cols
        for i in range(1, a.n_block_rows + 1):
            for k in range(1, u + 1):
                for j in range(1, a.n_block_cols + 1):
                    for l in range(1, v + 1):
                        got = ts.block((i - 1) * u + k, (j - 1) * v + l)
                        assert got == kronecker(a.block(i, j), b.block(k, l))


def test_tracy_singh_row_sizes_order():
    a = random_partitioned(random.Random(1), (1, 2), (2,))
    b = random_partitioned(random.Random(2), (3, 1), (1, 1))
    ts = tracy_singh(a, b)
    assert ts.partition.row_sizes == (3, 1, 6, 2)
    assert ts.partition.col_sizes == (2, 2)


def test_khatri_rao():
    rng = random.Random(37)
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 2, 4)
    kr = khatri_rao(PartitionedMatrix.single(a), PartitionedMatrix.single(b))
    assert kr == kronecker(a, b)
    # fully refined partitions collapse the blockwise product to Hadamard
    c = random_matrix(rng, 3, 3)
    d = random_matrix(rng, 3, 3)
    ones = (1, 1, 1)
    kr2 = khatri_rao(PartitionedMatrix(c, BlockPartition(ones, ones)),
                     PartitionedMatrix(d, BlockPartition(ones, ones)))
    assert kr2 == hadamard(c, d)


def test_khatri_rao_frozen():
    a = PartitionedMatrix(rows([[1, 2], [3, 4]]), BlockPartition((1, 1), (2,)))
    b = PartitionedMatrix(rows([[5, 6], [7, 8]]), BlockPartition((1, 1), (2,)))
    assert khatri_rao(a, b) == rows([
        [5, 6, 10, 12],
        [21, 24, 28, 32],
    ])


def test_khatri_rao_grid_mismatch():
    a = PartitionedMatrix.uniform(identity(4), 2, 2)
    b = PartitionedMatrix.single(identity(4))
    with pytest.raises(ShapeError):
        khatri_rao(a, b)


def test_mixed_product_rule():
    # (A # B)(C # D) = AC # BD whenever AC and BD exist
    rng = random.Random(41)
    for _ in range(6):
        ra, ca, cc = random_sizes(rng), random_sizes(rng), random_sizes(rng)
        rb, cb, cd = random_sizes(rng), random_sizes(rng), random_sizes(rng)
        a = random_partitioned(rng, ra, ca)
        c = random_partitioned(rng, ca, cc)
        b = random_partitioned(rng, rb, cb)
        d = random_partitioned(rng, cb, cd)
        left = tracy_singh(a, b).matrix @ tracy_singh(c, d).matrix
        ac = PartitionedMatrix(a.matrix @ c.matrix, BlockPartition(ra, cc))
        bd = PartitionedMatrix(b.matrix @ d.matrix, BlockPartition(rb, cd))
        assert left == tracy_singh(ac, bd).matrix


def test_tracy_singh_associative():
    rng = random.Random(43)
    for _ in range(4):
        a = random_partitioned(rng, random_sizes(rng, 2), random_sizes(rng, 2))
        b = random_partitioned(rng, random_sizes(rng, 2), random_sizes(rng, 2))
        c = random_partitioned(rng, random_sizes(rng, 2), random_sizes(rng, 2))
        left = tracy_singh(tracy_singh(a, b), c)
        right = tracy_singh(a, tracy_singh(b, c))
        assert left.matrix == right.matrix
        assert left.partition == right.partition


def test_tracy_singh_distributes_over_addition():
    rng = random.Random(47)
    for _ in range(4):
        sizes = (random_sizes(rng), random_sizes(rng))
        a = random_partitioned(rng, *sizes)
        b = random_partitioned(rng, *sizes)
        c = random_partitioned(rng, random_sizes(rng), random_sizes(rng))
        ab = PartitionedMatrix(a.matrix + b.matrix, a.partition)
        assert tracy_singh(ab, c).matrix == \
            tracy_singh(a, c).matrix + tracy_singh(b, c).matrix
        assert tracy_singh(c, ab).matrix == \
            tracy_singh(c, a).matrix + tracy_singh(c, b).matrix


def test_tracy_singh_scalar_pullout():
    rng = random.Random(53)
    a = random_partitioned(rng, (2, 1), (1, 2))
    b = random_partitioned(rng, (2,), (2, 2))
    s = F(-7, 3)
    sa = PartitionedMatrix(s * a.matrix, a.partition)
    sb = PartitionedMatrix(s * b.matrix, b.partition)
    expected = s * tracy_singh(a, b).matrix
    assert tracy_singh(sa, b).matrix == expected
    assert tracy_singh(a, sb).matrix == expected


def test_tracy_singh_transpose():
    rng = random.Random(59)
    for _ in range(4):
        a = random_partitioned(rng, random_sizes(rng), random_sizes(rng))
        b = random_partitioned(rng, random_sizes(rng), random_sizes(rng))
        assert tracy_singh(a, b).matrix.transpose() == \
            tracy_singh(a.transpose(), b.transpose()).matrix


def test_tracy_singh_inverse():
    rng = random.Random(61)
    for _ in range(4):
        a = PartitionedMatrix(random_invertible(rng, 4), BlockPartition((2, 2), (2, 2)))
        b = PartitionedMatrix(random_invertible(rng, 3), BlockPartition((1, 2), (1, 2)))
        ai = PartitionedMatrix(inverse(a.matrix), a.partition)
        bi = PartitionedMatrix(inverse(b.matrix), b.partition)
        assert inverse(tracy_singh(a, b).matrix) == tracy_singh(ai, bi).matrix


def test_tracy_singh_identity():
    for sizes_a in [(4,), (2, 2), (1, 2, 1)]:
        for sizes_b in [(2,), (1, 1)]:
            ia = PartitionedMatrix(identity(4), BlockPartition(sizes_a, sizes_a))
            ib = PartitionedMatrix(identity(2), BlockPartition(sizes_b, sizes_b))
            assert tracy_singh(ia, ib).matrix == identity(8)


def test_tracy_singh_not_commutative_witness():
    a = PartitionedMatrix.single(rows([[0, 1], [0, 0]]))
    b = PartitionedMatrix.single(rows([[1, 0], [0, 2]]))
    assert tracy_singh(a, b).matrix != tracy_singh(b, a).matrix


def test_kronecker_commutation_similarity():
    # B (x) A = K_mn (A (x) B) K_st for A of shape n x s and B of shape m x t
    rng = random.Random(67)
    for n, s, m, t in [(2, 3, 2, 2), (3, 2, 2, 3), (2, 2, 3, 3), (1, 3, 2, 1)]:
        a = random_matrix(rng, n, s)
        b = random_matrix(rng, m, t)
        lhs = kronecker(b, a)
        rhs = commutation_matrix(m, n) @ kronecker(a, b) @ commutation_matrix(s, t)
        assert lhs == rhs


def test_tracy_singh_uniform_similarity():
    # uniformly partitioned A (p x q grid of n' x s' blocks) and
    # B (u x v grid of m' x t' blocks):
    # A # B = (I_p (x) K_{u,n'} (x) I_{m'}) (A (x) B) (I_q (x) K_{s',v} (x) I_{t'})
    rng = random.Random(71)
    cases = [(2, 2, 2, 2, 2, 1, 2, 2), (2, 1, 3, 2, 1, 2, 2, 1)]
    for p, q, n1, s1, u, v, m1, t1 in cases:
        a = random_partitioned(rng, (n1,) * p, (s1,) * q)
        b = random_partitioned(rng, (m1,) * u, (t1,) * v)
        left = kronecker(kronecker(identity(p), commutation_matrix(u, n1)),
                         identity(m1))
        right = kronecker(kronecker(identity(q), commutation_matrix(s1, v)),
                          identity(t1))
        assert tracy_singh(a, b).matrix == \
            left @ kronecker(a.matrix, b.matrix) @ right


def test_csv_roundtrip_plain():
    m = rows([[1, F(-3, 2)], [0, 7]])
    text = format_matrix_csv(m)
    back, part = parse_matrix_csv(text)
    assert back == m and part is None


def test_csv_roundtrip_partitioned():
    pm = sample_b()
    text = format_matrix_csv(pm.matrix, pm.partition)
    assert text.splitlines()[0] == "# partition rows=2,2 cols=2,2"
    back = parse_partitioned_csv(text)
    assert back == pm


def test_csv_canonicalizes_fractions():
    m, _ = parse_matrix_csv("2/4,-6/4\n0/5,3\n")
    assert m == rows([[F(1, 2), F(-3, 2)], [0, 3]])
    assert format_matrix_csv(m) == "1/2,-3/2\n0,3\n"


def test_csv_no_header_is_single_block():
    pm = parse_partitioned_csv("1,0\n0,1\n")
    assert pm.partition == BlockPartition((2,), (2,))


def test_csv_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix_csv("1,x\n")
    with pytest.raises(ParseError):
        parse_matrix_csv("1,2\n3\n")
    with pytest.raises(ParseError):
        parse_matrix_csv("")
    with pytest.raises(ParseError):
        parse_matrix_csv("# partition rows=zz cols=1\n1\n")
    with pytest.raises(ParseError,
                       match=r"^bad partition header: partition strip sizes must be positive$"):
        parse_matrix_csv("# partition rows=0 cols=1\n1\n")
    with pytest.raises(ParseError):
        parse_matrix_csv("1,1/0\n")
    for zero in ["1/0", "1/00", "-0/000"]:
        with pytest.raises(ParseError, match=r"^bad matrix entry '%s'$" % zero):
            parse_matrix_csv(f"1,{zero}\n")
    with pytest.raises(ParseError, match=r"^rows have unequal lengths$"):
        parse_matrix_csv("1,2\n3\n")
    with pytest.raises(ParseError,
                       match=r"^bad partition header: '# partition rows=1,,1 cols=2'$"):
        parse_matrix_csv("# partition rows=1,,1 cols=2\n1,0\n0,1\n")
    with pytest.raises(ShapeError):
        parse_partitioned_csv("# partition rows=3 cols=2\n1,0\n0,1\n")


@pytest.mark.parametrize("entry", ENTRIES_OUTSIDE_GRAMMAR)
def test_csv_rejects_entries_outside_grammar(entry):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_matrix_csv(f"1,{entry}\n")
    assert time.perf_counter() - start < 1.0


def test_csv_accepts_entries_at_digit_cap():
    big = "9" * CSV_MAX_DIGITS
    m, _ = parse_matrix_csv(f"-{big}/{big[:-1]}8,0/5\n")
    assert m.entry(1, 1) == -Fraction(int(big), int(big) - 1)
    # a product of two capped entries still formats as CSV
    assert format_matrix_csv(kronecker(m, m)).split(",")[0] == str(m.entry(1, 1) ** 2)


@st.composite
def small_matrices(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    c = draw(st.integers(min_value=1, max_value=3))
    nums = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    cells = draw(st.lists(nums, min_size=r * c, max_size=r * c))
    return Matrix(r, c, cells)


@given(small_matrices(), small_matrices())
@settings(deadline=None, max_examples=40)
def test_kronecker_transpose_distributes(a, b):
    assert kronecker(a, b).transpose() == kronecker(a.transpose(), b.transpose())


@given(small_matrices())
@settings(deadline=None, max_examples=40)
def test_csv_roundtrip_property(m):
    back, _ = parse_matrix_csv(format_matrix_csv(m))
    assert back == m


# --- the sparse kernel against naive list-of-lists Fraction formulas --------

def _offsets(sizes):
    return [sum(sizes[:k]) for k in range(len(sizes))]


def _naive_blocks(cells, part):
    return [[[row[c0:c0 + w] for row in cells[r0:r0 + h]]
             for c0, w in zip(_offsets(part.col_sizes), part.col_sizes)]
            for r0, h in zip(_offsets(part.row_sizes), part.row_sizes)]


def _naive_join(grid):
    return [sum((blk[r] for blk in brow), []) for brow in grid for r in range(len(brow[0]))]


def _naive_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


UNIT_KINDS = ("identity", "permutation", "partial permutation", "map")


@st.composite
def sparse_partitioned(draw, part=None, kinds=("rationals", "unit entries") + UNIT_KINDS):
    """A partitioned matrix with random strips, often square, of one kind:
    random rationals of random sparsity, often with an all-zero row and an
    all-zero column; entries drawn mostly from 1 and -1; a matrix with at
    most one 1 a row and no column hit twice (identity, permutation, partial
    permutation); or one 1 a row, columns hit any number of times (map, the
    transpose of a function matrix).  Ones are ints or Fraction(1) through
    `Matrix.from_rows`, the kernel's own from `permutation_matrix`,
    `identity` and `@`, or fresh Fraction(1) objects from `+`."""
    if part is None:
        strips = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
        row_strips = draw(strips)
        part = BlockPartition(row_strips, draw(st.one_of(st.just(row_strips), strips)))
    rows, cols = sum(part.row_sizes), sum(part.col_sizes)
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(kinds))
    if kind in ("rationals", "unit entries"):
        density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
        zero_row, zero_col = rng.randrange(rows + 1), rng.randrange(cols + 1)
        pool = [1, F(1), -1, 1, F(2, 3)]
        cells = [[(F(rng.randint(-5, 5), rng.randint(1, 7)) if kind == "rationals"
                   else rng.choice(pool))
                  if rng.random() < density and r != zero_row and c != zero_col else F(0)
                  for c in range(cols)] for r in range(rows)]
        return PartitionedMatrix(Matrix.from_rows(cells), part)
    # targets[r]: the column of row r's 1, or None for an empty row
    targets = rng.sample(range(cols), min(rows, cols)) + [None] * (rows - cols)
    rng.shuffle(targets)
    if kind == "identity" and rows == cols:
        targets = list(range(rows))
    elif kind == "partial permutation":
        targets = [t if rng.random() < 0.7 else None for t in targets]
    elif kind == "map":
        targets = [rng.randrange(cols) for _ in range(rows)]
    one = draw(st.sampled_from([1, F(1)]))
    cells = [[one if c == t else 0 for c in range(cols)] for t in targets]
    build = draw(st.sampled_from(["from_rows", "kernel", "sum"]))
    if build == "kernel" and rows == cols and set(targets) == set(range(cols)):
        m = permutation_matrix([targets.index(c) + 1 for c in range(cols)])
        m = identity(rows) @ m if kind == "identity" else m
    elif build == "sum":
        m = zeros(rows, cols) + Matrix.from_rows(cells)
    else:
        m = Matrix.from_rows(cells)
    return PartitionedMatrix(m, part)


def _same(result, naive):
    # equal entries, and equal to the public constructor's matrix, so the
    # kernel stores no zero that == or hash would see
    assert result.to_rows() == naive
    assert result == Matrix.from_rows(naive)
    assert hash(result) == hash(Matrix.from_rows(naive))


@given(sparse_partitioned(), sparse_partitioned())
@settings(deadline=None, max_examples=60)
def test_partitioned_products_match_naive_formulas(pa, pb):
    a, b = pa.matrix.to_rows(), pb.matrix.to_rows()
    _same(kronecker(pa.matrix, pb.matrix), _naive_kron(a, b))
    ga, gb = _naive_blocks(a, pa.partition), _naive_blocks(b, pb.partition)
    ts = tracy_singh(pa, pb)
    _same(ts.matrix, _naive_join([[_naive_kron(x, y) for x in ra for y in rb]
                                  for ra in ga for rb in gb]))
    assert ts.partition.row_sizes == tuple(
        p * q for p in pa.partition.row_sizes for q in pb.partition.row_sizes)
    for i in range(1, pa.n_block_rows + 1):
        for j in range(1, pa.n_block_cols + 1):
            _same(pa.block(i, j), ga[i - 1][j - 1])


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_same_shape_operations_match_naive_formulas(data):
    pa = data.draw(sparse_partitioned())
    pb = data.draw(sparse_partitioned(pa.partition))
    a, b = pa.matrix.to_rows(), pb.matrix.to_rows()
    ga, gb = _naive_blocks(a, pa.partition), _naive_blocks(b, pb.partition)
    _same(khatri_rao(pa, pb), _naive_join([[_naive_kron(x, y) for x, y in zip(ra, rb)]
                                           for ra, rb in zip(ga, gb)]))
    _same(hadamard(pa.matrix, pb.matrix),
          [[x * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    _same(pa.matrix + pb.matrix, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    _same(pa.matrix - pb.matrix, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    _same(-pa.matrix, [[-x for x in ra] for ra in a])
    lam = data.draw(st.sampled_from([F(0), F(1), F(-3, 2), 2]))
    _same(lam * pa.matrix, [[lam * x for x in ra] for ra in a])
    _same(pa.matrix.transpose(), [list(col) for col in zip(*a)])
    pc = data.draw(sparse_partitioned(BlockPartition(pa.partition.col_sizes, (2, 1))))
    c = pc.matrix.to_rows()
    _same(pa.matrix @ pc.matrix, [[sum((x * y for x, y in zip(ra, col)), F(0))
                                   for col in zip(*c)] for ra in a])


@given(sparse_partitioned())
@settings(deadline=None, max_examples=30)
def test_difference_with_itself_is_zeros(pa):
    a = pa.matrix
    assert a - a == zeros(a.rows, a.cols)
    assert hash(a - a) == hash(zeros(a.rows, a.cols))
    assert a + (-a) == zeros(a.rows, a.cols) == 0 * a


def _naive_matmul(a, b):
    return [[sum((x * y for x, y in zip(ra, col)), F(0)) for col in zip(*b)] for ra in a]


@given(st.data())
@settings(deadline=None, max_examples=80)
def test_unit_matmul_matches_general_path(data):
    # `@` by a (partial) permutation moves rows; doubling the operand takes
    # the integer path instead, and both must match the naive product
    p = data.draw(sparse_partitioned(kinds=UNIT_KINDS)).matrix
    general = ("rationals", "unit entries")
    m = data.draw(sparse_partitioned(BlockPartition((p.cols,), (2, 1)), general)).matrix
    n = data.draw(sparse_partitioned(BlockPartition((1, 2), (p.rows,)), general)).matrix
    half = F(1, 2)
    assert p @ m == half * ((2 * p) @ m)
    assert n @ p == half * (n @ (2 * p))
    _same(p @ m, _naive_matmul(p.to_rows(), m.to_rows()))
    _same(n @ p, _naive_matmul(n.to_rows(), p.to_rows()))
    _same(p @ p.transpose(), _naive_matmul(p.to_rows(), p.transpose().to_rows()))


def test_unit_paths_leave_operands_unchanged():
    rng = random.Random(19)
    m = random_invertible(rng, 4)
    p = permutation_matrix((3, 1, 4, 2))
    before = [(x.to_rows(), hash(x)) for x in (m, p)]
    left, right = p @ m, m @ p
    tracy_singh(PartitionedMatrix.uniform(left, 2, 2), PartitionedMatrix.uniform(right, 2, 2))
    tracy_singh(PartitionedMatrix.single(p), PartitionedMatrix.uniform(left, 2, 2))
    inverse(left), inverse(right), inverse(p @ p)
    assert [(x.to_rows(), hash(x)) for x in (m, p)] == before
    assert left == rows(_naive_matmul(p.to_rows(), m.to_rows()))
    assert not {id(d) for d in left._nz + right._nz} & {id(d) for d in m._nz + p._nz}


def test_ones_from_outside_are_the_kernel_one():
    # the unit fast paths test identity with the kernel's one
    for m in [rows([[1, F(1), F(3, 3)]]), parse_matrix_csv("1,2/2\n0,1\n")[0]]:
        assert all(v is _ONE for d in m._nz for v in d.values())


def test_strip_map_is_cached_and_immutable():
    pos, sizes = _strip_map((2, 1), (1, 2), False)
    assert _strip_map((2, 1), (1, 2), False) == (pos, sizes)
    assert sizes == (2, 4, 1, 2)
    with pytest.raises(TypeError):
        pos[0][0] = 0
    with pytest.raises(TypeError):
        pos[0] = ()
    assert _strip_map((2, 1), (1, 2), True)[1] == (2, 2)


def test_matmul_with_large_coprime_denominators_is_exact():
    rng = random.Random(7)
    big = 10 ** 50
    dens = [1, 2, 3, 6, big + 1, big + 2, big + 3, (big + 1) * (big + 2)]

    def entry():
        return F(rng.randint(-big, big), rng.choice(dens)) if rng.random() < 0.7 else F(0)

    a = [[entry() for _ in range(5)] for _ in range(4)]
    b = [[entry() for _ in range(3)] for _ in range(5)]
    naive = [[sum((x * y for x, y in zip(ra, col)), F(0)) for col in zip(*b)] for ra in a]
    _same(rows(a) @ rows(b), naive)
