"""Representing matrices of set-theoretic solutions, braid and quantum
matrix checks, block position formulas, and the product-compatibility
verifier tying the blockwise Kronecker product to the direct product of
solutions.

Tensor bases are ordered lexicographically: the basis vector e_i (x) e_j of
V (x) V sits at flattened position (i-1)n + j.  The matrix of any map r
therefore has, in column (i-1)n + j, a single 1 at row (u-1)n + v where
(u, v) = r(i, j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .blockmat import (Matrix, PartitionedMatrix, _function_matrix, _times,
                       commutation_matrix, identity, inverse, kronecker, tracy_singh)
from .errors import ShapeError
from .setsolutions import (MapTable, SetSolution, _pair_map, axiom_failure,
                           direct_product, index_to_pair, invert_table, pair_to_index)


@dataclass(frozen=True)
class BlockPosition:
    block_row: int
    block_col: int
    inner_row: int
    inner_col: int


@dataclass(frozen=True)
class TheoremAResult:
    """Outcome of the product-compatibility check; on mismatch, witness is
    (row, col, entry of the direct-product matrix, entry of the blockwise
    Kronecker product)."""

    ok: bool
    n: int
    m: int
    witness: tuple[int, int, Fraction, Fraction] | None = None

    def verdict_line(self) -> str:
        if self.ok:
            return f"THEOREM_A ok n={self.n} m={self.m} pairs=1"
        return f"THEOREM_A FAIL at ({self.witness[0]},{self.witness[1]})"


def representing_matrix(s: SetSolution) -> PartitionedMatrix:
    """0/1 matrix sending e_i (x) e_j to e_u (x) e_v with (u, v) = r(i, j),
    cut into an n x n grid of order-n blocks: column (i-1)n + j has its 1
    at row (u-1)n + v.  Built for any map, it is a permutation matrix exactly
    when r is a bijection; requiring a solution is the caller's job."""
    return PartitionedMatrix.uniform(_function_matrix(_pair_map(s)), s.n, s.n)


def _require_order(c: Matrix, order: int) -> None:
    if c.rows != order or c.cols != order:
        raise ShapeError(f"matrix of order {order} expected, got {c.rows}x{c.cols}")


def ybe_check_matrix(c: Matrix, n: int) -> bool:
    """Braid form on V (x) V (x) V: (c (x) I)(I (x) c)(c (x) I) equals
    (I (x) c)(c (x) I)(I (x) c)."""
    c12 = embed_on_factors(c, n, (1, 2))
    c23 = embed_on_factors(c, n, (2, 3))
    return c12 @ c23 @ c12 == c23 @ c12 @ c23


def ybe_check_scalar(c: Matrix, n: int) -> bool:
    """Braid form as the six-index coefficient identity.

    Writing c[i,j -> k,l] for the entry at row (k-1)n + l, column (i-1)n + j,
    the check is, for all i, j, k and all targets l, m, o:

        sum_{p,q,y} c[i,j->p,q] c[q,k->y,o] c[p,y->l,m]
      = sum_{y,q,r} c[j,k->q,r] c[i,q->l,y] c[y,r->m,o]

    Both sides are accumulated over the nonzero coefficients only; absent
    targets are zero on both sides, so comparing the accumulated maps
    compares every index combination.
    """
    _require_order(c, n * n)
    rng = range(1, n + 1)
    # nz[(i, j)]: the nonzero (k, l) targets of column (i-1)n + j, in order
    nz = {index_to_pair(col, n): [(index_to_pair(row + 1, n), v) for row, v in d.items()]
          for col, d in enumerate(c.transpose()._nz, start=1)}
    for i, j, k in itertools.product(rng, repeat=3):
        lhs: dict[tuple, list[Fraction]] = {}
        for (p, q), v1 in nz[(i, j)]:
            for (y, o), v2 in nz[(q, k)]:
                w = _times(v1, v2)
                for (l, m), v3 in nz[(p, y)]:
                    lhs.setdefault((l, m, o), []).append(_times(w, v3))
        rhs: dict[tuple, list[Fraction]] = {}
        for (q, r), v1 in nz[(j, k)]:
            for (l, y), v2 in nz[(i, q)]:
                w = _times(v1, v2)
                for (m, o), v3 in nz[(y, r)]:
                    rhs.setdefault((l, m, o), []).append(_times(w, v3))
        if ({t: v for t, ts in lhs.items() if (v := sum(ts[1:], ts[0]))}
                != {t: v for t, ts in rhs.items() if (v := sum(ts[1:], ts[0]))}):
            return False
    return True


def flip_matrix(n: int) -> Matrix:
    """Permutation matrix of the factor swap e_i (x) e_j -> e_j (x) e_i,
    which is the commutation matrix K(n, n)."""
    return commutation_matrix(n, n)


def compose_flip(c: Matrix, n: int, side: str) -> Matrix:
    """Compose with the factor swap: side 'left' gives tau . c, side
    'right' gives c . tau."""
    _require_order(c, n * n)
    tau = flip_matrix(n)
    if side == "left":
        return tau @ c
    if side == "right":
        return c @ tau
    raise ValueError("side must be 'left' or 'right'")


def embed_on_factors(m: Matrix, n: int, factors: tuple[int, int]) -> Matrix:
    """Embed an operator on V (x) V into V (x) V (x) V acting on the named
    pair of tensor factors, identity elsewhere.

    The (1,3) embedding is the Tracy-Singh product of I (one block) with m
    cut into its n x n grid of order-n blocks: it acts on e_a (x) e_b (x) e_c
    through a and c only, so its block (i, k) is I (x) m_ik.
    """
    _require_order(m, n * n)
    factors = tuple(factors)
    eye = identity(n)
    if factors == (1, 2):
        return kronecker(m, eye)
    if factors == (2, 3):
        return kronecker(eye, m)
    if factors == (1, 3):
        return tracy_singh(PartitionedMatrix.single(eye),
                           PartitionedMatrix.uniform(m, n, n)).matrix
    raise ValueError("factor pair must be (1,2), (1,3) or (2,3)")


def qybe_check(r: Matrix, n: int) -> bool:
    """Quantum form: R12 R13 R23 = R23 R13 R12 on V (x) V (x) V."""
    r12 = embed_on_factors(r, n, (1, 2))
    r13 = embed_on_factors(r, n, (1, 3))
    r23 = embed_on_factors(r, n, (2, 3))
    return r12 @ r13 @ r23 == r23 @ r13 @ r12


def conjugate_check(c: Matrix, p: Matrix, n: int) -> bool:
    """Whether p^{-1} c p still passes the matrix braid check."""
    _require_order(c, n * n)
    _require_order(p, n * n)
    return ybe_check_matrix(inverse(p) @ c @ p, n)


@lru_cache(maxsize=256)
def _sigma_inverses(s: SetSolution) -> tuple[MapTable, ...]:
    """The inverse sigma tables of s once s passes axiom_failure (else its
    AxiomError).  Cached per solution, so a scan over the n^2 blocks gates
    once; an exception is not cached, so a refusal repeats on every call."""
    if (failure := axiom_failure(s)) is not None:
        raise failure
    return tuple(map(invert_table, s.sigma))


def block_nonzero_position(s: SetSolution, i: int, j: int) -> BlockPosition:
    """Position of the single 1 inside block (i, j) of the representing
    matrix of a non-degenerate involutive braided solution (else the
    AxiomError of axiom_failure): inner row sigma_i^{-1}(j), inner column
    sigma_j^{-1}(i).

    Block (i, j) holds the pairs (j, y) that r sends to first component i,
    so y = sigma_j^{-1}(i) and the inner row is gamma_y(j); involutivity at
    (j, y) gives sigma_i(gamma_y(j)) = j, so gamma_y(j) = sigma_i^{-1}(j).
    """
    if not (1 <= i <= s.n and 1 <= j <= s.n):
        raise IndexError(f"block ({i},{j}) outside 1..{s.n}")
    inv = _sigma_inverses(s)
    return BlockPosition(i, j, inv[i - 1][j - 1], inv[j - 1][i - 1])


def tracy_block_source(i: int, j: int, m: int) -> tuple[int, int, int, int]:
    """Which factor blocks feed block (i, j) of a blockwise Kronecker
    product whose right factor has an m x m block grid: returns
    (ihat, jhat, ibar, jbar) with block (i, j) = A_[ihat,jhat] (x) B_[ibar,jbar]."""
    ihat, ibar = index_to_pair(i, m)
    jhat, jbar = index_to_pair(j, m)
    return ihat, jhat, ibar, jbar


def direct_rep_position(sx: SetSolution, sy: SetSolution, i: int, j: int) -> BlockPosition:
    """Position of the single 1 inside block (i, j) of the direct product's
    representing matrix, from the factor positions alone; each factor must
    pass block_nonzero_position's gate (else AxiomError)."""
    n, m = sx.n, sy.n
    if not (1 <= i <= n * m and 1 <= j <= n * m):
        raise IndexError(f"block ({i},{j}) outside 1..{n * m}")
    ihat, jhat, ibar, jbar = tracy_block_source(i, j, m)
    a = block_nonzero_position(sx, ihat, jhat)
    b = block_nonzero_position(sy, ibar, jbar)
    return BlockPosition(i, j, pair_to_index(a.inner_row, b.inner_row, m),
                         pair_to_index(a.inner_col, b.inner_col, m))


def verify_theorem_a(sx: SetSolution, sy: SetSolution, check: bool = True) -> TheoremAResult:
    """Entrywise comparison of the blockwise Kronecker product of the two
    representing matrices against the representing matrix of the direct
    product solution.

    Both sides are assembled positionally from the same four table families,
    so the equality holds for any maps, bijective or not.  With check=True,
    sx, sy and their direct product must pass axiom_failure in turn, whose
    AxiomError is raised at the first failure; that ties the statement to
    genuine solutions.  The mismatch branch guards against regressions in
    either construction."""
    sxy = direct_product(sx, sy)
    for s in (sx, sy, sxy) if check else ():
        if (failure := axiom_failure(s)) is not None:
            raise failure
    c, d, e = map(representing_matrix, (sx, sy, sxy))
    em, pm = e.matrix, tracy_singh(c, d).matrix
    if em == pm:
        return TheoremAResult(True, sx.n, sy.n)
    # equal orders, so unequal matrices differ in some entry
    i, j = next((i, j) for i in range(1, em.rows + 1) for j in range(1, em.cols + 1)
                if em.entry(i, j) != pm.entry(i, j))
    return TheoremAResult(False, sx.n, sy.n, (i, j, em.entry(i, j), pm.entry(i, j)))
