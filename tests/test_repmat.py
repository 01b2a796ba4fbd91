"""Representing matrices, YBE checkers in both forms, and the product theorem."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (
    NOT_BRAIDED,
    cycle_solution3,
    random_matrix,
    set_maps,
    swap_solution,
    trivial_solution,
)
from ybekit.blockmat import (
    Matrix,
    PartitionedMatrix,
    commutation_matrix,
    identity,
    inverse,
    is_permutation_matrix,
    kronecker,
    permutation_matrix,
    tracy_singh,
    zeros,
)
from ybekit.errors import ShapeError, SingularMatrixError
from ybekit.repmat import (
    block_nonzero_position,
    compose_flip,
    conjugate_check,
    direct_rep_position,
    embed_on_factors,
    flip_matrix,
    qybe_check,
    representing_matrix,
    tracy_block_source,
    verify_theorem_a,
    ybe_check_matrix,
    ybe_check_scalar,
)
from ybekit.setsolutions import (
    SetSolution,
    _pair_map,
    apply_r,
    direct_product,
    invert_table,
    pair_to_index,
)

rows = Matrix.from_rows

C_TRIVIAL = rows([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
])

D_SWAP = rows([
    [0, 0, 0, 1],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [1, 0, 0, 0],
])


def test_representing_matrix_frozen():
    assert representing_matrix(trivial_solution(2)).matrix == C_TRIVIAL
    assert representing_matrix(swap_solution()).matrix == D_SWAP


def test_representing_matrix_structure():
    for s in [trivial_solution(3), swap_solution(), cycle_solution3()]:
        rep = representing_matrix(s)
        n = s.n
        assert rep.matrix.rows == rep.matrix.cols == n * n
        assert rep.partition.row_sizes == (n,) * n
        assert is_permutation_matrix(rep.matrix)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                blk = rep.block(i, j)
                nonzero = [(r, c) for r in range(1, n + 1)
                           for c in range(1, n + 1) if blk.entry(r, c) != 0]
                assert len(nonzero) == 1


def test_representing_matrix_column_rule():
    s = cycle_solution3()
    rep = representing_matrix(s)
    n = s.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            u, v = apply_r(s, i, j)
            col = pair_to_index(i, j, n)
            row = pair_to_index(u, v, n)
            for r in range(1, n * n + 1):
                expected = 1 if r == row else 0
                assert rep.matrix.entry(r, col) == expected


def test_representing_matrix_trivial_is_flip():
    for n in [2, 3, 4]:
        rep = representing_matrix(trivial_solution(n))
        assert rep.matrix == flip_matrix(n)


def test_representing_matrix_rejects_non_solutions():
    # the matrix is built for any map; the verifier is what requires a solution
    cyc = SetSolution(3, ((2, 3, 1),) * 3, ((1, 2, 3),) * 3)
    assert is_permutation_matrix(representing_matrix(cyc).matrix)
    for pair in ((cyc, trivial_solution(2)), (trivial_solution(2), cyc)):
        with pytest.raises(ValueError, match=r"^solution is not involutive: witness=\(1, 1\)$"):
            verify_theorem_a(*pair)


@given(set_maps())
@settings(deadline=None, max_examples=150)
def test_representing_matrix_matches_naive_columns(s):
    # for any map, column (i-1)n + j holds a single 1 at row (u-1)n + v,
    # (u, v) = r(i, j)
    n = s.n
    targets = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            u, v = apply_r(s, i, j)
            targets.append((u - 1) * n + v)
    m = representing_matrix(s).matrix
    for col, row in enumerate(targets, start=1):
        assert [m.entry(r, col) for r in range(1, n * n + 1)] == [
            int(r == row) for r in range(1, n * n + 1)]


@given(set_maps())
@settings(deadline=None, max_examples=150)
def test_representing_matrix_is_permutation_iff_bijective(s):
    r = _pair_map(s)
    assert (is_permutation_matrix(representing_matrix(s).matrix)
            == (sorted(r) == list(range(s.n * s.n))))


def test_ybe_check_matrix():
    assert ybe_check_matrix(C_TRIVIAL, 2)
    assert ybe_check_matrix(D_SWAP, 2)
    assert ybe_check_matrix(flip_matrix(3), 3)
    with pytest.raises(ShapeError):
        ybe_check_matrix(identity(5), 2)
    with pytest.raises(ShapeError):
        ybe_check_matrix(zeros(4, 3), 2)


def test_ybe_check_scalar_matches_matrix_on_solutions():
    for m in [C_TRIVIAL, D_SWAP, flip_matrix(2)]:
        assert ybe_check_scalar(m, 2)
        assert ybe_check_matrix(m, 2)


def test_ybe_checks_agree_on_random_matrices():
    rng = random.Random(101)
    cases = [random_matrix(rng, 4, 4, span=2, max_den=2) for _ in range(6)]
    cases += [random_matrix(rng, 9, 9, span=1, max_den=1) for _ in range(2)]
    img = list(range(1, 5))
    rng.shuffle(img)
    cases.append(permutation_matrix(tuple(img)))
    for m in cases:
        n = 2 if m.rows == 4 else 3
        assert ybe_check_matrix(m, n) == ybe_check_scalar(m, n)


def test_ybe_check_scale_invariance(sols2, sols3):
    for s in sols2 + sols3:
        c = representing_matrix(s).matrix
        scaled = 2 * c
        assert ybe_check_scalar(scaled, s.n)
        assert ybe_check_matrix(scaled, s.n)


def test_r_matrix_closure_inverse_and_flip_conjugate(sols2, sols3):
    for s in sols2 + sols3:
        n = s.n
        c = representing_matrix(s).matrix
        assert ybe_check_matrix(inverse(c), n)
        tau = flip_matrix(n)
        assert ybe_check_matrix(tau @ c @ tau, n)


def test_flip_matrix_frozen():
    assert flip_matrix(2) == C_TRIVIAL
    assert flip_matrix(3) @ flip_matrix(3) == identity(9)


def test_compose_flip():
    assert compose_flip(flip_matrix(2), 2, "left") == identity(4)
    assert compose_flip(flip_matrix(2), 2, "right") == identity(4)
    assert compose_flip(D_SWAP, 2, "left") == flip_matrix(2) @ D_SWAP
    assert compose_flip(D_SWAP, 2, "right") == D_SWAP @ flip_matrix(2)
    with pytest.raises(ValueError):
        compose_flip(D_SWAP, 2, "both")
    with pytest.raises(ShapeError):
        compose_flip(identity(3), 2, "left")


def test_embed_on_factors():
    rng = random.Random(103)
    m = random_matrix(rng, 4, 4)
    assert embed_on_factors(m, 2, (1, 2)) == kronecker(m, identity(2))
    assert embed_on_factors(m, 2, (2, 3)) == kronecker(identity(2), m)
    assert embed_on_factors(identity(4), 2, (1, 3)) == identity(8)
    assert embed_on_factors(identity(9), 3, (1, 3)) == identity(27)
    with pytest.raises(ValueError):
        embed_on_factors(m, 2, (2, 1))
    with pytest.raises(ValueError):
        embed_on_factors(m, 2, (1, 4))


def test_embed_on_factors_13_alternative_route():
    # swapping factors 2,3 before and after M (x) I equals swapping 1,2
    # around I (x) M; both say "act on factors 1 and 3"
    rng = random.Random(107)
    for n in [1, 2, 3]:
        dense = random_matrix(rng, n * n, n * n, span=2, max_den=2)
        sparse = Matrix(n * n, n * n, [rng.choice([0, 0, 0, 0, 1, -2, Fraction(1, 3)])
                                       for _ in range(n ** 4)])
        tau = flip_matrix(n)
        for m in (dense, sparse, zeros(n * n, n * n)):
            route_23 = kronecker(identity(n), tau) @ kronecker(m, identity(n)) \
                @ kronecker(identity(n), tau)
            route_12 = kronecker(tau, identity(n)) @ kronecker(identity(n), m) \
                @ kronecker(tau, identity(n))
            assert embed_on_factors(m, n, (1, 3)) == route_23 == route_12


def test_qybe_check():
    assert qybe_check(identity(4), 2)
    assert qybe_check(identity(9), 3)
    for c in [C_TRIVIAL, D_SWAP]:
        assert qybe_check(compose_flip(c, 2, "left"), 2)
        assert qybe_check(compose_flip(c, 2, "right"), 2)


def test_qybe_equivalent_to_braid_form():
    # R = tau . c satisfies the quantum form iff c satisfies the braid form
    rng = random.Random(109)
    for _ in range(12):
        img = list(range(1, 5))
        rng.shuffle(img)
        c = permutation_matrix(tuple(img))
        assert ybe_check_matrix(c, 2) == qybe_check(compose_flip(c, 2, "left"), 2)


def test_conjugate_check_frozen():
    four_cycle = permutation_matrix((2, 3, 4, 1))
    double_swap = permutation_matrix((4, 3, 2, 1))
    for c in [C_TRIVIAL, D_SWAP]:
        assert not conjugate_check(c, four_cycle, 2)
        assert conjugate_check(c, double_swap, 2)
        assert conjugate_check(c, identity(4), 2) == ybe_check_matrix(c, 2)


def test_conjugate_check_singular():
    with pytest.raises(SingularMatrixError):
        conjugate_check(C_TRIVIAL, zeros(4, 4), 2)


def test_block_nonzero_position_frozen():
    pos = block_nonzero_position(trivial_solution(2), 1, 2)
    assert (pos.block_row, pos.block_col) == (1, 2)
    assert (pos.inner_row, pos.inner_col) == (2, 1)
    pos = block_nonzero_position(swap_solution(), 1, 1)
    assert (pos.inner_row, pos.inner_col) == (2, 2)
    with pytest.raises(IndexError):
        block_nonzero_position(swap_solution(), 3, 1)


def test_block_nonzero_position_square_free_diagonal():
    s = trivial_solution(3)
    for i in range(1, 4):
        pos = block_nonzero_position(s, i, i)
        inv = invert_table(s.sigma[i - 1])
        assert (pos.inner_row, pos.inner_col) == (inv[i - 1], inv[i - 1])


def _scan_block(matrix, n, i, j):
    hits = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)
            if matrix.entry((i - 1) * n + r, (j - 1) * n + c) != 0]
    assert len(hits) == 1
    return hits[0]


def test_block_nonzero_position_matches_scan(sols2, sols3, sols4):
    for s in sols2 + sols3 + sols4:
        m = representing_matrix(s).matrix
        for i in range(1, s.n + 1):
            for j in range(1, s.n + 1):
                pos = block_nonzero_position(s, i, j)
                assert (pos.inner_row, pos.inner_col) == _scan_block(m, s.n, i, j)


def test_block_positions_refuse_non_involutive_and_degenerate_tables():
    ident = ((1, 2, 3),) * 3
    # sigma_x = (2 3 1), gamma_y = id: non-degenerate, not involutive at (1, 1)
    non_involutive = SetSolution(3, ((2, 3, 1),) * 3, ident)
    degenerate = SetSolution(3, ((1, 1, 2),) + ident[1:], ident)
    # one gate for every caller: the positions also require the braid relation
    for s, message in [(non_involutive, "solution is not involutive: witness=(1, 1)"),
                       (degenerate, "solution is not nondegenerate: witness=('sigma', 1)"),
                       (NOT_BRAIDED, "solution is not braided: witness=(1, 1, 2)")]:
        for call in [lambda: block_nonzero_position(s, 1, 1),
                     lambda: direct_rep_position(s, swap_solution(), 1, 1),
                     lambda: direct_rep_position(swap_solution(), s, 1, 1)]:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message


def test_direct_rep_position_frozen():
    pos = direct_rep_position(trivial_solution(2), swap_solution(), 2, 1)
    assert (pos.block_row, pos.block_col) == (2, 1)
    assert (pos.inner_row, pos.inner_col) == (2, 1)
    pos = direct_rep_position(trivial_solution(2), trivial_solution(2), 1, 1)
    assert (pos.inner_row, pos.inner_col) == (1, 1)
    with pytest.raises(IndexError):
        direct_rep_position(trivial_solution(2), swap_solution(), 5, 1)


def test_direct_rep_position_matches_scan():
    pairs = [(trivial_solution(2), swap_solution()),
             (swap_solution(), cycle_solution3())]
    for sx, sy in pairs:
        nm = sx.n * sy.n
        e = representing_matrix(direct_product(sx, sy)).matrix
        for i in range(1, nm + 1):
            for j in range(1, nm + 1):
                pos = direct_rep_position(sx, sy, i, j)
                assert (pos.inner_row, pos.inner_col) == _scan_block(e, nm, i, j)


def test_tracy_block_source():
    assert tracy_block_source(2, 4, 2) == (1, 2, 2, 2)
    assert tracy_block_source(1, 1, 3) == (1, 1, 1, 1)
    for m in [2, 3]:
        for i in range(1, 2 * m + 1):
            for j in range(1, 2 * m + 1):
                ihat, jhat, ibar, jbar = tracy_block_source(i, j, m)
                assert pair_to_index(ihat, ibar, m) == i
                assert pair_to_index(jhat, jbar, m) == j


def test_verify_theorem_a_ok():
    res = verify_theorem_a(trivial_solution(2), swap_solution())
    assert res.ok and res.witness is None
    assert res.verdict_line() == "THEOREM_A ok n=2 m=2 pairs=1"


def test_verify_theorem_a_trivial_pairs():
    for n in [2, 3]:
        for m in [2, 3]:
            assert verify_theorem_a(trivial_solution(n), trivial_solution(m)).ok


def test_verify_theorem_a_second_route(sols2, sols3):
    # the product representing matrix also equals the commutation-matrix
    # sandwich of the plain Kronecker product
    pairs = [(sols2[0], sols2[1]), (sols2[1], sols3[5])]
    for sx, sy in pairs:
        n, m = sx.n, sy.n
        c = representing_matrix(sx).matrix
        d = representing_matrix(sy).matrix
        e = representing_matrix(direct_product(sx, sy)).matrix
        left = kronecker(kronecker(identity(n), commutation_matrix(m, n)),
                         identity(m))
        right = kronecker(kronecker(identity(n), commutation_matrix(n, m)),
                          identity(m))
        assert e == left @ kronecker(c, d) @ right


def test_verify_theorem_a_gates_on_axioms():
    good = swap_solution()
    tampered = SetSolution(2, good.sigma, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        verify_theorem_a(trivial_solution(2), tampered)


def test_verify_theorem_a_equality_is_structural():
    # both sides are built cell by cell from the same tables, so even an
    # invalid gamma keeps them equal; rejecting bad tables is the job of
    # the axiom gate above, not of the entrywise comparison
    good = swap_solution()
    tampered = SetSolution(2, good.sigma, ((1, 2), (1, 2)))
    res = verify_theorem_a(trivial_solution(2), tampered, check=False)
    assert res.ok and res.witness is None


@given(set_maps(max_n=3), set_maps(max_n=3))
@settings(deadline=None, max_examples=100)
def test_verify_theorem_a_holds_for_any_maps(sx, sy):
    # the identity is positional: it needs neither the axioms nor bijective
    # pair maps
    assert verify_theorem_a(sx, sy, check=False).ok


def test_verify_theorem_a_reports_corrupted_product(monkeypatch):
    # fault injection: the blockwise product gets one wrong entry, at (2, 5)
    import ybekit.repmat

    def corrupted(a, b):
        prod = tracy_singh(a, b)
        cells = prod.matrix.to_rows()
        cells[1][4] += 1
        return PartitionedMatrix(Matrix.from_rows(cells), prod.partition)

    monkeypatch.setattr(ybekit.repmat, "tracy_singh", corrupted)
    res = verify_theorem_a(trivial_solution(2), swap_solution())
    assert not res.ok
    assert res.witness == (2, 5, Fraction(0), Fraction(1))
    assert res.verdict_line() == "THEOREM_A FAIL at (2,5)"


def test_verify_theorem_a_gates_the_direct_product(monkeypatch):
    # fault injection: both factors pass, but the product handed to the gate
    # is the non-involutive sigma_x = (2 3 1), gamma_y = id
    import ybekit.repmat

    cyc = SetSolution(3, ((2, 3, 1),) * 3, ((1, 2, 3),) * 3)
    monkeypatch.setattr(ybekit.repmat, "direct_product", lambda sx, sy: cyc)
    with pytest.raises(ValueError, match=r"^solution is not involutive: witness=\(1, 1\)$"):
        verify_theorem_a(trivial_solution(2), swap_solution())


def test_theorem_a_fail_verdict_plumbing():
    from fractions import Fraction
    from ybekit.repmat import TheoremAResult
    res = TheoremAResult(False, 2, 2, (3, 1, Fraction(1), Fraction(0)))
    assert res.verdict_line() == "THEOREM_A FAIL at (3,1)"
