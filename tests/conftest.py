"""Shared builders and fixtures: exact random matrices and small braided sets."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ybekit.blockmat import BlockPartition, Matrix, PartitionedMatrix, identity
from ybekit.enumeration import EnumerationConfig, enumerate_solutions
from ybekit.errors import SingularMatrixError
from ybekit.setsolutions import Permutation, SetSolution, apply_r, invert_table


def trivial_solution(n: int) -> SetSolution:
    ident = tuple(range(1, n + 1))
    return SetSolution(n, (ident,) * n, (ident,) * n)


def swap_solution() -> SetSolution:
    """The order-2 solution whose maps all exchange the two points."""
    return SetSolution(2, ((2, 1), (2, 1)), ((2, 1), (2, 1)))


def cycle_solution3() -> SetSolution:
    """Order-3 solution with a 3-cycle sigma and its inverse as gamma."""
    return SetSolution(3, ((2, 3, 1),) * 3, ((3, 1, 2),) * 3)


# frozen by an exhaustive search over all n=3 table assignments:
# nondegenerate and involutive, yet the braid identities fail at (1,1,2)
NOT_BRAIDED = SetSolution(
    3,
    ((1, 3, 2), (1, 3, 2), (2, 3, 1)),
    ((1, 3, 2), (3, 1, 2), (1, 3, 2)),
)


def brute_force_isomorphism(sa, sb):
    """Reference route: the first relabeling in lexicographic order that
    carries r_a to r_b, found by walking all n! of them."""
    rng = range(1, sa.n + 1)
    for image in itertools.permutations(rng):
        if all(apply_r(sb, image[x - 1], image[y - 1])
               == tuple(image[v - 1] for v in apply_r(sa, x, y))
               for x in rng for y in rng):
            return Permutation(image)
    return None


def relabeled(s, image):
    """s carried along the relabeling with 1-based images `image`."""
    n = s.n
    inv = invert_table(image)
    tables = lambda t: tuple(tuple(image[t[inv[x] - 1][inv[y] - 1] - 1] for y in range(n))
                             for x in range(n))
    return SetSolution(n, tables(s.sigma), tables(s.gamma))


@st.composite
def set_maps(draw, max_n: int = 4) -> SetSolution:
    """Tables of a map r on {1..n}, n <= max_n, drawn as r on the n*n pairs:
    an arbitrary map, a bijection, an involution, or the involutive braided
    r(x, y) = (f(y), f^-1(x)) of a permutation f."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    kind = draw(st.sampled_from(["map", "bijection", "involution", "lyubashenko"]))
    if kind == "map":
        image = draw(st.lists(st.sampled_from(pairs), min_size=n * n, max_size=n * n))
    elif kind == "bijection":
        image = draw(st.permutations(pairs))
    elif kind == "involution":
        order = draw(st.permutations(range(n * n)))
        image = list(pairs)
        for a, b in zip(order[::2], order[1::2]):
            image[a], image[b] = pairs[b], pairs[a]
    else:
        f = draw(st.permutations(range(1, n + 1)))
        image = [(f[y - 1], f.index(x) + 1) for x, y in pairs]
    sigma = [[0] * n for _ in range(n)]
    gamma = [[0] * n for _ in range(n)]
    for (x, y), (u, v) in zip(pairs, image):
        sigma[x - 1][y - 1] = u
        gamma[y - 1][x - 1] = v
    return SetSolution(n, tuple(map(tuple, sigma)), tuple(map(tuple, gamma)))


# Rational cores of the order-4 pair used throughout the product tests.
# sample_a carries an implicit global 1/sqrt(2) factor in its usual
# normalisation; scaling by sqrt(2) commutes with every product here,
# so the tests work with the rational core directly.
def sample_a() -> PartitionedMatrix:
    m = Matrix.from_rows([
        [1, 0, 0, 1],
        [0, 1, -1, 0],
        [0, 1, 1, 0],
        [-1, 0, 0, 1],
    ])
    return PartitionedMatrix(m, BlockPartition((2, 2), (2, 2)))


def sample_b() -> PartitionedMatrix:
    m = Matrix.from_rows([
        [2, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, Fraction(3, 2), 0],
        [0, 0, 0, 2],
    ])
    return PartitionedMatrix(m, BlockPartition((2, 2), (2, 2)))


def random_matrix(rng: random.Random, rows: int, cols: int,
                  span: int = 4, max_den: int = 3) -> Matrix:
    cells = [Fraction(rng.randint(-span, span), rng.randint(1, max_den))
             for _ in range(rows * cols)]
    return Matrix(rows, cols, cells)


def random_sizes(rng: random.Random, max_blocks: int = 3, max_size: int = 3) -> tuple:
    return tuple(rng.randint(1, max_size) for _ in range(rng.randint(1, max_blocks)))


def random_partitioned(rng: random.Random, row_sizes, col_sizes) -> PartitionedMatrix:
    m = random_matrix(rng, sum(row_sizes), sum(col_sizes))
    return PartitionedMatrix(m, BlockPartition(tuple(row_sizes), tuple(col_sizes)))


def random_invertible(rng: random.Random, n: int) -> Matrix:
    # unit lower times unit upper triangular keeps the determinant 1
    lower = [[Fraction(rng.randint(-2, 2)) if i > j else Fraction(int(i == j))
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.randint(-2, 2)) if i < j else Fraction(int(i == j))
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def dense_inverse(a: Matrix) -> Matrix:
    """Reference inverse: Gauss-Jordan over every cell of the dense rows of
    [a | I], pivot on the first nonzero entry in the column."""
    n = a.rows
    work = [r + e for r, e in zip(a.to_rows(), identity(n).to_rows())]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        if p != 1:
            work[col] = [x / p for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return Matrix.from_rows([r[n:] for r in work])


_SPARSE_ENTRIES = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


@st.composite
def sparse_square_matrices(draw, max_n: int = 5):
    """(matrix, singular) with singular True, False or None (not known):
    sparse random entries; a permutation matrix; P D U with U unit upper
    triangular and sparse, D a diagonal of non-unit scales and P a row
    permutation, so elimination needs row swaps and divides by pivots; or a
    sparse matrix with one row a multiple (possibly 0) of another."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    kind = draw(st.sampled_from(["sparse", "permutation", "swaps", "singular"]))
    cell = st.sampled_from(_SPARSE_ENTRIES)
    rows = [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]
    if kind in ("permutation", "swaps"):
        image = draw(st.permutations(range(n)))
        upper = [[int(i == j) if i >= j or kind == "permutation" else rows[i][j]
                  for j in range(n)] for i in range(n)]
        scales = ([1] * n if kind == "permutation" else
                  draw(st.lists(st.sampled_from([1, -1, 3, Fraction(2, 5)]),
                                min_size=n, max_size=n)))
        rows = [[scales[i] * x for x in upper[image[i]]] for i in range(n)]
        return Matrix.from_rows(rows), False
    if kind == "singular":
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        factor = draw(cell)
        rows[dst] = [0] * n if src == dst else [factor * x for x in rows[src]]
        return Matrix.from_rows(rows), True
    return Matrix.from_rows(rows), None


def bijection_level_oracle(n: int):
    """Second enumeration route: walk every bijection of the n*n pair
    indices, keep the involutions, decode tables, filter by the checks."""
    from ybekit.setsolutions import (
        index_to_pair,
        is_braided,
        is_involutive,
        is_nondegenerate,
    )

    found = []
    for perm in itertools.permutations(range(n * n)):
        if any(perm[perm[k]] != k for k in range(n * n)):
            continue
        sigma = [[0] * n for _ in range(n)]
        gamma = [[0] * n for _ in range(n)]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                u, v = index_to_pair(perm[(i - 1) * n + j - 1] + 1, n)
                sigma[i - 1][j - 1] = u
                gamma[j - 1][i - 1] = v
        s = SetSolution(n, tuple(tuple(t) for t in sigma),
                        tuple(tuple(t) for t in gamma))
        if is_nondegenerate(s) and is_involutive(s) and is_braided(s):
            found.append(s)
    found.sort(key=lambda s: s.sigma)
    return found


@pytest.fixture(scope="session")
def sols2():
    return enumerate_solutions(EnumerationConfig(2))


@pytest.fixture(scope="session")
def sols3():
    return enumerate_solutions(EnumerationConfig(3))


@pytest.fixture(scope="session")
def sols4():
    return enumerate_solutions(EnumerationConfig(4))


@pytest.fixture(scope="session")
def leaders5():
    """The n = 5 class leaders and their class sizes, searched under the
    README's 10 476-node budget: a search that visits more fails (10 475
    refuses)."""
    sizes: list[int] = []
    cfg = EnumerationConfig(5, dedupe=True, limit=10476, max_n=5)
    return enumerate_solutions(cfg, sizes), sizes
