"""Acceptance gate: eleven end-to-end criteria, every comparison exact.

Each test prints one pass/fail line (visible with pytest -s) and asserts
the same verdict, so the -v listing doubles as the criterion report.
"""

import itertools
import random
import time
from fractions import Fraction

from conftest import (bijection_level_oracle, random_invertible, random_matrix,
                      random_partitioned, random_sizes, sample_a, sample_b,
                      swap_solution, trivial_solution)
from ybekit.blockmat import (BlockPartition, Matrix, PartitionedMatrix,
                             commutation_matrix, identity, inverse,
                             is_permutation_matrix, kronecker,
                             permutation_matrix, tracy_singh)
from ybekit.enumeration import EnumerationConfig, enumerate_solutions
from ybekit.repmat import (block_nonzero_position, compose_flip,
                           conjugate_check, direct_rep_position, flip_matrix,
                           qybe_check, representing_matrix, tracy_block_source,
                           ybe_check_matrix, ybe_check_scalar)
from ybekit.setsolutions import apply_r, direct_product

# order-4 representing matrices of the two solutions on a two-point set
C_SOLUTION = Matrix.from_rows([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
])
D_SOLUTION = Matrix.from_rows([
    [0, 0, 0, 1],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [1, 0, 0, 0],
])
K23 = Matrix.from_rows([
    [1, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1],
])
# block (2,4) of sample_a x| sample_b; the samples carry a common scalar
# normalisation implicitly, which the braid checks never see
BLOCK_2_4 = Matrix.from_rows([
    [0, 0, Fraction(3, 2), 0],
    [0, 0, 0, 2],
    [Fraction(-3, 2), 0, 0, 0],
    [0, -2, 0, 0],
])


def report(num: int, slug: str, ok: bool, detail: str = "") -> None:
    """One pass/fail line per criterion; the assert repeats the verdict."""
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


def test_criterion_01_blockwise_product_compatibility(sols2, sols3):
    """Rep matrix of a direct product equals the blockwise Kronecker
    product of the factor rep matrices, for all 196 ordered pairs."""
    start = time.perf_counter()
    reps = [(s, representing_matrix(s)) for s in sols2 + sols3]
    pairs = 0
    bad = 0
    for (sx, rx), (sy, ry) in itertools.product(reps, repeat=2):
        left = tracy_singh(rx, ry)
        right = representing_matrix(direct_product(sx, sy))
        ok = (left.matrix == right.matrix
              and left.partition == right.partition
              and is_permutation_matrix(left.matrix))
        pairs += 1
        bad += 0 if ok else 1
    elapsed = time.perf_counter() - start
    report(1, "blockwise-product-compatibility",
           bad == 0 and pairs == 196 and elapsed < 60.0,
           f"{pairs} pairs, {elapsed:.1f}s")


def test_criterion_02_commutation_matrix_2_3():
    """commutation_matrix(2, 3) equals the frozen order-6 matrix."""
    report(2, "commutation-matrix-2-3", commutation_matrix(2, 3) == K23)


def test_criterion_03_worked_product_block():
    """Block (2,4) of the sample blockwise Kronecker product is the frozen
    rational 4x4 block."""
    blk = tracy_singh(sample_a(), sample_b()).block(2, 4)
    report(3, "worked-product-block", blk == BLOCK_2_4)


def test_criterion_04_two_point_representing_matrices():
    """The two solutions on two points reproduce the frozen order-4
    matrices."""
    c = representing_matrix(trivial_solution(2)).matrix
    d = representing_matrix(swap_solution()).matrix
    report(4, "two-point-representing-matrices",
           c == C_SOLUTION and d == D_SOLUTION)


def test_criterion_05_direct_product_table():
    """Six frozen values of the product map on the four-point direct
    product of the two-point solutions."""
    z = direct_product(trivial_solution(2), swap_solution())
    expected = {(1, 1): (2, 2), (1, 3): (4, 2), (1, 4): (3, 2),
                (2, 3): (4, 1), (2, 4): (3, 1), (3, 3): (4, 4)}
    ok = all(apply_r(z, i, k) == out for (i, k), out in expected.items())
    report(5, "direct-product-table", ok, f"{len(expected)} values")


def test_criterion_06_square_grid_similarity():
    """For square matrices in uniform square grids, the blockwise Kronecker
    product is a permutation conjugate of the plain one, and the two
    operand orders are conjugate to each other, with explicit matrices."""
    rng = random.Random(1506)
    checks = 0
    bad = 0
    for n, m in itertools.product((2, 3), repeat=2):
        order = n * n * m * m
        k_big = commutation_matrix(m * m, n * n)
        k_big_inv = commutation_matrix(n * n, m * m)
        left_sand = kronecker(kronecker(identity(n), commutation_matrix(m, n)),
                              identity(m))
        right_sand = kronecker(kronecker(identity(n), commutation_matrix(n, m)),
                               identity(m))
        p = (kronecker(kronecker(identity(m), commutation_matrix(n, m)),
                       identity(n))
             @ k_big @ right_sand)
        # inverse of a permutation matrix is its transpose
        setup_ok = (k_big @ k_big_inv == identity(order)
                    and left_sand @ right_sand == identity(order)
                    and is_permutation_matrix(p))
        p_inv = p.transpose()
        for _ in range(20):
            a = random_matrix(rng, n * n, n * n)
            b = random_matrix(rng, m * m, m * m)
            ap = PartitionedMatrix(a, BlockPartition((n,) * n, (n,) * n))
            bp = PartitionedMatrix(b, BlockPartition((m,) * m, (m,) * m))
            ab = kronecker(a, b)
            ts = tracy_singh(ap, bp).matrix
            ok = (setup_ok
                  and kronecker(b, a) == k_big @ ab @ k_big_inv
                  and ts == left_sand @ ab @ right_sand
                  and tracy_singh(bp, ap).matrix == p @ ts @ p_inv)
            checks += 1
            bad += 0 if ok else 1
    report(6, "square-grid-similarity", bad == 0 and checks == 80,
           f"{checks} cases")


def test_criterion_07_blockwise_product_laws():
    """Algebraic laws of the blockwise Kronecker product on randomized
    partitioned rational matrices, plus a non-commutativity witness."""
    rng = random.Random(1507)
    cases = 50
    bad = {}

    def tally(name, ok):
        bad[name] = bad.get(name, 0) + (0 if ok else 1)

    for _ in range(cases):
        sizes = [random_sizes(rng, 2, 2) for _ in range(6)]
        a = random_partitioned(rng, sizes[0], sizes[1])
        b = random_partitioned(rng, sizes[2], sizes[3])
        c = random_partitioned(rng, sizes[4], sizes[5])
        tally("associative", tracy_singh(tracy_singh(a, b), c).matrix
              == tracy_singh(a, tracy_singh(b, c)).matrix)

        a2 = random_partitioned(rng, sizes[0], sizes[1])
        c2 = random_partitioned(rng, sizes[2], sizes[3])
        lhs = tracy_singh(PartitionedMatrix(a.matrix + a2.matrix, a.partition),
                          PartitionedMatrix(b.matrix + c2.matrix, b.partition))
        rhs = (tracy_singh(a, b).matrix + tracy_singh(a, c2).matrix
               + tracy_singh(a2, b).matrix + tracy_singh(a2, c2).matrix)
        tally("distributive", lhs.matrix == rhs)

        d = random_partitioned(rng, sizes[1], sizes[4])
        e = random_partitioned(rng, sizes[3], sizes[5])
        mixed = tracy_singh(a, b).matrix @ tracy_singh(d, e).matrix
        direct = tracy_singh(
            PartitionedMatrix(a.matrix @ d.matrix,
                              BlockPartition(sizes[0], sizes[4])),
            PartitionedMatrix(b.matrix @ e.matrix,
                              BlockPartition(sizes[2], sizes[5])))
        tally("mixed-product", mixed == direct.matrix)

        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        scaled = lam * tracy_singh(a, b).matrix
        tally("scalar", scaled
              == tracy_singh(PartitionedMatrix(lam * a.matrix, a.partition), b).matrix
              and scaled
              == tracy_singh(a, PartitionedMatrix(lam * b.matrix, b.partition)).matrix)

        sq1, sq2 = sizes[0], sizes[2]
        inv_a = PartitionedMatrix(random_invertible(rng, sum(sq1)),
                                  BlockPartition(sq1, sq1))
        inv_b = PartitionedMatrix(random_invertible(rng, sum(sq2)),
                                  BlockPartition(sq2, sq2))
        tally("inverse", inverse(tracy_singh(inv_a, inv_b).matrix)
              == tracy_singh(
                  PartitionedMatrix(inverse(inv_a.matrix), inv_a.partition),
                  PartitionedMatrix(inverse(inv_b.matrix), inv_b.partition)).matrix)

        tally("transpose", tracy_singh(a, b).matrix.transpose()
              == tracy_singh(a.transpose(), b.transpose()).matrix)

        p1, q1 = random_sizes(rng, 2, 3), random_sizes(rng, 2, 3)
        eye_a = PartitionedMatrix(identity(sum(p1)), BlockPartition(p1, p1))
        eye_b = PartitionedMatrix(identity(sum(q1)), BlockPartition(q1, q1))
        tally("identity", tracy_singh(eye_a, eye_b).matrix
              == identity(sum(p1) * sum(q1)))

    witness_a = PartitionedMatrix.single(Matrix.from_rows([[0, 1], [0, 0]]))
    witness_b = PartitionedMatrix.single(Matrix.from_rows([[1, 0], [0, 2]]))
    non_commutative = (tracy_singh(witness_a, witness_b).matrix
                       != tracy_singh(witness_b, witness_a).matrix)
    ok = non_commutative and all(v == 0 for v in bad.values()) and len(bad) == 7
    report(7, "blockwise-product-laws", ok,
           f"7 laws x {cases} cases + witness")


def test_criterion_08_conjugation_spot_checks():
    """Conjugating the order-4 solutions by a 4-cycle breaks the braid
    check; conjugating by the double transposition preserves it."""
    four_cycle = permutation_matrix((2, 3, 4, 1))
    double_swap = permutation_matrix((4, 3, 2, 1))
    ok = True
    for mat in (C_SOLUTION, D_SOLUTION):
        ok = ok and not conjugate_check(mat, four_cycle, 2)
        ok = ok and conjugate_check(mat, double_swap, 2)
    report(8, "conjugation-spot-checks", ok)


def test_criterion_09_dual_oracle_agreement(sols2, sols3):
    """Matrix and scalar braid checks agree everywhere; table-level and
    bijection-level enumerations agree; position formulas match scans."""
    sols = sols2 + sols3
    suite = []
    for s in sols:
        c = representing_matrix(s).matrix
        suite.append((c, s.n))
        suite.append((compose_flip(c, s.n, "left"), s.n))
    suite.append((C_SOLUTION, 2))
    suite.append((D_SOLUTION, 2))
    suite.append((tracy_singh(sample_a(), sample_b()).matrix, 4))
    suite.append((flip_matrix(2), 2))
    suite.append((flip_matrix(3), 3))
    rng = random.Random(1509)
    for _ in range(10):
        image = list(range(1, 5))
        rng.shuffle(image)
        suite.append((permutation_matrix(tuple(image)), 2))
    for _ in range(5):
        suite.append((random_invertible(rng, 4), 2))
    agree_bad = sum(1 for c, n in suite
                    if ybe_check_matrix(c, n) != ybe_check_scalar(c, n))

    def keyed(lst):
        return [(s.n, s.sigma, s.gamma) for s in lst]

    enum_ok = all(keyed(enumerate_solutions(EnumerationConfig(n)))
                  == keyed(bijection_level_oracle(n)) for n in (1, 2, 3))

    position_bad = 0
    for s in sols:
        pm = representing_matrix(s)
        for i, j in itertools.product(range(1, s.n + 1), repeat=2):
            pos = block_nonzero_position(s, i, j)
            blk = pm.block(i, j)
            found = [(r, c) for r in range(1, s.n + 1)
                     for c in range(1, s.n + 1) if blk.entry(r, c)]
            if found != [(pos.inner_row, pos.inner_col)]:
                position_bad += 1
    for sx, sy in itertools.product(sols, repeat=2):
        nm = sx.n * sy.n
        rx, ry = representing_matrix(sx), representing_matrix(sy)
        ts = tracy_singh(rx, ry)
        epm = representing_matrix(direct_product(sx, sy))
        for i, j in itertools.product(range(1, nm + 1), repeat=2):
            ihat, jhat, ibar, jbar = tracy_block_source(i, j, sy.n)
            if ts.block(i, j) != kronecker(rx.block(ihat, jhat),
                                           ry.block(ibar, jbar)):
                position_bad += 1
            pos = direct_rep_position(sx, sy, i, j)
            blk = epm.block(i, j)
            found = [(r, c) for r in range(1, nm + 1)
                     for c in range(1, nm + 1) if blk.entry(r, c)]
            if found != [(pos.inner_row, pos.inner_col)]:
                position_bad += 1
    report(9, "dual-oracle-agreement",
           agree_bad == 0 and enum_ok and position_bad == 0,
           f"{len(suite)} matrices, 196 product scans")


def test_criterion_10_quantum_form(sols2, sols3):
    """Both flip compositions of every enumerated representing matrix pass
    the quantum-form check."""
    ok = True
    for s in sols2 + sols3:
        c = representing_matrix(s).matrix
        ok = ok and qybe_check(compose_flip(c, s.n, "left"), s.n)
        ok = ok and qybe_check(compose_flip(c, s.n, "right"), s.n)
    report(10, "quantum-form", ok, "14 matrices, both sides")


def test_criterion_11_sample_product_is_solution():
    """The sample blockwise Kronecker product satisfies the scalar braid
    check at order 16."""
    product = tracy_singh(sample_a(), sample_b()).matrix
    report(11, "sample-product-is-solution", ybe_check_scalar(product, 4))
