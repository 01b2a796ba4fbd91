"""Shared builders and fixtures: exact random matrices and small braided sets."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ybekit.blockmat import BlockPartition, Matrix, PartitionedMatrix
from ybekit.enumeration import EnumerationConfig, enumerate_solutions
from ybekit.setsolutions import SetSolution


def trivial_solution(n: int) -> SetSolution:
    ident = tuple(range(1, n + 1))
    return SetSolution(n, (ident,) * n, (ident,) * n)


def swap_solution() -> SetSolution:
    """The order-2 solution whose maps all exchange the two points."""
    return SetSolution(2, ((2, 1), (2, 1)), ((2, 1), (2, 1)))


def cycle_solution3() -> SetSolution:
    """Order-3 solution with a 3-cycle sigma and its inverse as gamma."""
    return SetSolution(3, ((2, 3, 1),) * 3, ((3, 1, 2),) * 3)


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


def bijection_level_oracle(n: int):
    """Second enumeration route: walk every bijection of the n*n pair
    indices, keep the involutions, decode tables, filter by the checks."""
    import itertools

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
