"""Set solutions: axiom checks, direct products, isomorphism, JSON round-trips."""

import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ybekit.setsolutions
from conftest import NOT_BRAIDED, cycle_solution3, set_maps, swap_solution, trivial_solution
from ybekit.errors import AxiomError, ParseError, ShapeError
from ybekit.setsolutions import (
    _cycle_side,
    CheckResult,
    Permutation,
    SetSolution,
    apply_r,
    axiom_failure,
    check_solution,
    direct_product,
    identity_table,
    index_to_pair,
    invert_table,
    is_bijection_table,
    is_braided,
    is_involutive,
    is_nondegenerate,
    is_square_free,
    is_trivial,
    isomorphic_set,
    pair_to_index,
    solution_from_json,
    solution_to_json,
)

# braided and nondegenerate but not involutive; r squared moves (1,3)
NOT_INVOLUTIVE = SetSolution(
    3,
    ((1, 2, 3), (1, 2, 3), (1, 2, 3)),
    ((1, 2, 3), (1, 2, 3), (2, 1, 3)),
)


def test_table_helpers():
    assert is_bijection_table((2, 3, 1))
    assert not is_bijection_table((1, 1, 3))
    assert invert_table((2, 3, 1)) == (3, 1, 2)
    assert identity_table(3) == (1, 2, 3)
    with pytest.raises(ValueError):
        invert_table((1, 1))


def test_permutation_type():
    p = Permutation((2, 3, 1))
    assert p.n == 3
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    for image in [(2.2, 1.0), (2.0, 1.0), (True, 2), ("2", "1")]:
        with pytest.raises(TypeError, match=r"^image values must be integers$"):
            Permutation(image)


def test_solution_construction_validation():
    with pytest.raises(ValueError):
        SetSolution(2, ((1, 2),), ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        SetSolution(2, ((1, 3), (1, 2)), ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        SetSolution(0, (), ())
    with pytest.raises(ValueError, match=r"^each sigma table must have 2 entries$"):
        SetSolution(2, ((1, 2), (1,)), ((1, 2), (1, 2)))
    # no coercion: a float, bool or str n or entry is a TypeError
    for n in [2.0, True, "2"]:
        with pytest.raises(TypeError, match=r"^n must be an integer$"):
            SetSolution(n, ((1, 2), (1, 2)), ((1, 2), (1, 2)))
    for entry in [1.9, 2.0, True, "2"]:
        with pytest.raises(TypeError, match=r"^sigma values must be integers$"):
            SetSolution(2, ((entry, 2), (1, 2)), ((1, 2), (1, 2)))
        with pytest.raises(TypeError, match=r"^gamma values must be integers$"):
            SetSolution(2, ((1, 2), (1, 2)), ((1, 2), (1, entry)))
    with pytest.raises(TypeError, match=r"^sigma must be a sequence of tables$"):
        SetSolution(2, 5, ((1, 2), (1, 2)))
    # non-bijective tables are representable; checks reject them later
    s = SetSolution(2, ((1, 1), (1, 2)), ((1, 2), (1, 2)))
    assert not is_nondegenerate(s)


def test_apply_r_trivial():
    s = trivial_solution(3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert apply_r(s, i, j) == (j, i)


def test_apply_r_swap_solution():
    assert apply_r(swap_solution(), 1, 1) == (2, 2)
    with pytest.raises(IndexError):
        apply_r(swap_solution(), 0, 1)
    with pytest.raises(IndexError):
        apply_r(swap_solution(), 1, 3)


def test_apply_r_twice_is_identity_for_involutive():
    for s in [trivial_solution(2), swap_solution(), cycle_solution3()]:
        for i in range(1, s.n + 1):
            for j in range(1, s.n + 1):
                u, v = apply_r(s, i, j)
                assert apply_r(s, u, v) == (i, j)


def test_is_nondegenerate():
    assert is_nondegenerate(trivial_solution(2))
    assert is_nondegenerate(swap_solution())
    const = SetSolution(2, ((1, 1), (1, 2)), ((1, 2), (1, 2)))
    res = is_nondegenerate(const)
    assert not res
    assert res.witness == ("sigma", 1)
    bad_gamma = SetSolution(2, ((1, 2), (1, 2)), ((1, 2), (2, 2)))
    assert is_nondegenerate(bad_gamma).witness == ("gamma", 2)


def test_is_involutive():
    assert is_involutive(trivial_solution(2))
    assert is_involutive(swap_solution())
    cyc = SetSolution(3, ((2, 3, 1),) * 3, (identity_table(3),) * 3)
    res = is_involutive(cyc)
    assert not res
    assert res.witness == (1, 1)
    assert is_involutive(NOT_INVOLUTIVE).witness == (1, 3)


def test_is_braided():
    assert is_braided(trivial_solution(2))
    assert is_braided(swap_solution())
    assert is_braided(NOT_INVOLUTIVE)
    res = is_braided(NOT_BRAIDED)
    assert not res
    assert res.witness == (1, 1, 2)
    assert is_nondegenerate(NOT_BRAIDED)
    assert is_involutive(NOT_BRAIDED)


def _cycle_side_symmetric(s: SetSolution) -> bool:
    """T(x, y) == T(y, x) on every pair, T the enumerator's helper, after
    checking T(x, sigma_x(a)) = sigma_x sigma_a on the 1-based tables."""
    sig = [[v - 1 for v in t] for t in s.sigma]
    inv = [[v - 1 for v in invert_table(t)] for t in s.sigma]
    pairs = list(itertools.product(range(s.n), repeat=2))
    for x, a in pairs:
        assert _cycle_side(sig, inv, x, sig[x][a]) == [
            s.sigma[x][s.sigma[a][z] - 1] - 1 for z in range(s.n)]
    return all(_cycle_side(sig, inv, x, y) == _cycle_side(sig, inv, y, x) for x, y in pairs)


def test_cycle_set_symmetry_is_the_braid_gate():
    # every non-degenerate involutive map with n <= 3: sigma runs over all
    # (n!)^n assignments, gamma_y(x) = sigma_{sigma_x(y)}^-1(x) makes r
    # involutive, and a map is kept when each gamma_y is a bijection
    counts = []
    for n in range(1, 4):
        maps = braided = 0
        for sigma in itertools.product(itertools.permutations(range(1, n + 1)), repeat=n):
            gamma = [[invert_table(sigma[sigma[x][y] - 1])[x] for x in range(n)]
                     for y in range(n)]
            if not all(map(is_bijection_table, gamma)):
                continue
            s = SetSolution(n, sigma, gamma)
            assert is_involutive(s)
            symmetric = _cycle_side_symmetric(s)
            assert symmetric == is_braided(s).ok
            maps += 1
            braided += symmetric
        counts.append((maps, braided))
    assert counts == [(1, 1), (2, 2), (24, 12)]
    assert not _cycle_side_symmetric(NOT_BRAIDED)


def test_checks_agree_on_random_tables():
    # hammer the built-in dual-route cross checks on arbitrary tables
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(1, 3)
        tables = lambda: tuple(
            tuple(rng.randint(1, n) for _ in range(n)) for _ in range(n))
        s = SetSolution(n, tables(), tables())
        report = check_solution(s)
        for res in [report.nondegenerate, report.involutive, report.braided,
                    report.square_free, report.trivial]:
            assert res.ok == (res.witness is None)


def _naive_involution_witness(s):
    for x, y in itertools.product(range(1, s.n + 1), repeat=2):
        if apply_r(s, *apply_r(s, x, y)) != (x, y):
            return (x, y)
    return None


def _naive_braided(s):
    def r12(t):
        return (*apply_r(s, t[0], t[1]), t[2])

    def r23(t):
        return (t[0], *apply_r(s, t[1], t[2]))

    return all(r12(r23(r12(t))) == r23(r12(r23(t)))
               for t in itertools.product(range(1, s.n + 1), repeat=3))


@given(set_maps())
@settings(deadline=None, max_examples=150)
def test_checks_match_naive_pair_map_oracle(s):
    assert is_involutive(s).witness == _naive_involution_witness(s)
    assert is_braided(s).ok == _naive_braided(s)


def test_involutive_cross_check_fires_on_a_corrupted_pair_map(monkeypatch):
    # fault injection: the pair map swaps the images of (1,1) and (1,2), so
    # the direct route no longer agrees with the sigma/gamma tables
    real = ybekit.setsolutions._pair_map

    def swapped(s):
        r = real(s)
        r[0], r[1] = r[1], r[0]
        return r

    monkeypatch.setattr(ybekit.setsolutions, "_pair_map", swapped)
    with pytest.raises(AssertionError, match="^involutivity formulations disagree$"):
        is_involutive(trivial_solution(2))


def test_braid_cross_check_fires_on_a_corrupted_witness(monkeypatch):
    # fault injection: the componentwise route misses NOT_BRAIDED's failure
    monkeypatch.setattr(ybekit.setsolutions, "_braid_witness", lambda sig, gam, n: None)
    with pytest.raises(AssertionError, match="^braid formulations disagree$"):
        is_braided(NOT_BRAIDED)


def test_axiom_failure_first_in_order():
    assert axiom_failure(swap_solution()) is None
    assert axiom_failure(cycle_solution3()) is None
    # degenerate and not involutive: the earlier axiom is the one reported
    degenerate = SetSolution(2, ((1, 1), (1, 2)), ((1, 2), (1, 2)))
    assert not is_involutive(degenerate)
    for s, name, witness in [(NOT_BRAIDED, "braided", (1, 1, 2)),
                             (NOT_INVOLUTIVE, "involutive", (1, 3)),
                             (degenerate, "nondegenerate", ("sigma", 1))]:
        f = axiom_failure(s)
        assert isinstance(f, AxiomError)
        assert f.name == name and f.witness == witness
        assert f.solution is s


def test_is_square_free():
    assert is_square_free(trivial_solution(3))
    res = is_square_free(swap_solution())
    assert not res and res.witness == (1,)
    assert is_square_free(cycle_solution3()).witness == (1,)


def test_is_trivial():
    assert is_trivial(trivial_solution(4))
    res = is_trivial(swap_solution())
    assert not res and res.witness == ("sigma", 1)
    assert is_trivial(NOT_INVOLUTIVE).witness == ("gamma", 3)


def test_check_result_witness_consistency():
    with pytest.raises(ValueError):
        CheckResult(True, (1, 2))
    with pytest.raises(ValueError):
        CheckResult(False, None)
    assert bool(CheckResult(True, None))
    assert not CheckResult(False, (1,))


def test_check_solution_report():
    rep = check_solution(swap_solution())
    assert rep.nondegenerate and rep.involutive and rep.braided
    assert not rep.square_free and rep.square_free.witness == (1,)
    assert not rep.trivial and rep.trivial.witness == ("sigma", 1)


def test_gamma_is_derived_from_sigma(sols3):
    # for nondegenerate involutive solutions the gamma tables are forced
    for s in sols3:
        inv = [invert_table(t) for t in s.sigma]
        for x in range(1, 4):
            for y in range(1, 4):
                assert s.gamma[y - 1][x - 1] == inv[s.sigma[x - 1][y - 1] - 1][x - 1]


def test_pair_index_frozen():
    assert pair_to_index(2, 2, 3) == 5
    assert index_to_pair(5, 3) == (2, 2)
    assert index_to_pair(6, 3) == (2, 3)
    assert pair_to_index(1, 1, 4) == 1


def test_pair_index_errors():
    with pytest.raises(ValueError):
        pair_to_index(1, 4, 3)
    with pytest.raises(ValueError):
        pair_to_index(1, 0, 3)
    with pytest.raises(ValueError):
        index_to_pair(0, 3)


@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(deadline=None)
def test_pair_index_roundtrip(i, k, m):
    if k > m:
        k = m
    t = pair_to_index(i, k, m)
    assert t == (i - 1) * m + k
    assert index_to_pair(t, m) == (i, k)


def test_direct_product_trivial_is_trivial():
    z = direct_product(trivial_solution(2), trivial_solution(3))
    assert z == trivial_solution(6)


def test_direct_product_frozen_tables():
    # product of the trivial and the swap order-2 solutions: every map
    # is the permutation exchanging the second-coordinate labels
    z = direct_product(trivial_solution(2), swap_solution())
    assert z.n == 4
    assert z.sigma == ((2, 1, 4, 3),) * 4
    assert z.gamma == ((2, 1, 4, 3),) * 4


def test_direct_product_frozen_values():
    z = direct_product(trivial_solution(2), swap_solution())
    table = {
        (1, 1): (2, 2),
        (1, 3): (4, 2),
        (1, 4): (3, 2),
        (2, 3): (4, 1),
        (2, 4): (3, 1),
        (3, 3): (4, 4),
    }
    for (i, j), expected in table.items():
        assert apply_r(z, i, j) == expected


@given(set_maps(max_n=3), set_maps(max_n=3))
@example(swap_solution(), cycle_solution3())
@settings(deadline=None, max_examples=100)
def test_direct_product_componentwise(sx, sy):
    # the product acts componentwise on every pair, whatever the maps are
    n, m = sx.n, sy.n
    z = direct_product(sx, sy)
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        su, gu = apply_r(sx, i, j)
        for k, l in itertools.product(range(1, m + 1), repeat=2):
            au, bu = apply_r(sy, k, l)
            assert (apply_r(z, pair_to_index(i, k, m), pair_to_index(j, l, m))
                    == (pair_to_index(su, au, m), pair_to_index(gu, bu, m)))


def test_direct_product_singleton_neutral():
    one = trivial_solution(1)
    s = cycle_solution3()
    assert direct_product(s, one) == s
    assert direct_product(one, s) == s


def test_direct_product_preserves_axioms():
    z = direct_product(trivial_solution(2), swap_solution())
    rep = check_solution(z)
    assert rep.nondegenerate and rep.involutive and rep.braided


def test_direct_product_composition_identities():
    # the flattened sigma/gamma maps of a product satisfy, pointwise:
    #   g_i^k g_j^l = g_{sigma_i(j)}^{alpha_k(l)} g_{gamma_j(i)}^{beta_l(k)}
    #   f_j^l f_i^k = f_{gamma_j(i)}^{beta_l(k)} f_{sigma_i(j)}^{alpha_k(l)}
    # and the mixed identity evaluated on the image of T_j^l
    for sx, sy in [(trivial_solution(2), swap_solution()),
                   (swap_solution(), cycle_solution3())]:
        n, m = sx.n, sy.n
        z = direct_product(sx, sy)
        g = lambda i, k: z.sigma[pair_to_index(i, k, m) - 1]
        f = lambda j, l: z.gamma[pair_to_index(j, l, m) - 1]
        sig = lambda i, j: sx.sigma[i - 1][j - 1]
        gam = lambda j, i: sx.gamma[j - 1][i - 1]
        alp = lambda k, l: sy.sigma[k - 1][l - 1]
        bet = lambda l, k: sy.gamma[l - 1][k - 1]
        points = range(1, n * m + 1)
        for i in range(1, n + 1):
            for k in range(1, m + 1):
                for j in range(1, n + 1):
                    for l in range(1, m + 1):
                        lhs = g(i, k)
                        rhs_outer = g(sig(i, j), alp(k, l))
                        rhs_inner = g(gam(j, i), bet(l, k))
                        inner = g(j, l)
                        for p in points:
                            assert lhs[inner[p - 1] - 1] == \
                                rhs_outer[rhs_inner[p - 1] - 1]
                        lhs_f = f(j, l)
                        inner_f = f(i, k)
                        rhs_outer_f = f(gam(j, i), bet(l, k))
                        rhs_inner_f = f(sig(i, j), alp(k, l))
                        for p in points:
                            assert lhs_f[inner_f[p - 1] - 1] == \
                                rhs_outer_f[rhs_inner_f[p - 1] - 1]
                        for s in range(1, n + 1):
                            for q in range(1, m + 1):
                                point = pair_to_index(j, l, m)
                                lhs_m = f(sx.sigma[gam(j, i) - 1][s - 1],
                                          sy.sigma[bet(l, k) - 1][q - 1])
                                rhs_m = g(sx.gamma[sig(j, s) - 1][i - 1],
                                          sy.gamma[alp(l, q) - 1][k - 1])
                                assert lhs_m[g(i, k)[point - 1] - 1] == \
                                    rhs_m[f(s, q)[point - 1] - 1]


def test_isomorphic_set_identity():
    s = swap_solution()
    mu = isomorphic_set(s, s)
    assert mu is not None and mu.image == (1, 2)


def test_isomorphic_set_distinguishes_n2():
    assert isomorphic_set(trivial_solution(2), swap_solution()) is None


def test_isomorphic_set_frozen_pair():
    a = SetSolution(3, ((1, 2, 3), (1, 2, 3), (2, 1, 3)),
                    ((1, 2, 3), (1, 2, 3), (2, 1, 3)))
    b = SetSolution(3, ((1, 2, 3), (3, 2, 1), (1, 2, 3)),
                    ((1, 2, 3), (3, 2, 1), (1, 2, 3)))
    mu = isomorphic_set(a, b)
    assert mu is not None and mu.image == (1, 3, 2)
    img = (None,) + mu.image
    for x in range(1, 4):
        for y in range(1, 4):
            u, v = apply_r(a, x, y)
            assert apply_r(b, img[x], img[y]) == (img[u], img[v])


def test_isomorphic_set_relabeled_copy():
    s = cycle_solution3()
    t = relabeled(s, (3, 1, 2))
    found = isomorphic_set(s, t)
    assert found is not None
    img = (None,) + found.image
    for x in range(1, 4):
        for y in range(1, 4):
            u, v = apply_r(s, x, y)
            assert apply_r(t, img[x], img[y]) == (img[u], img[v])


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


def test_isomorphic_set_matches_brute_force_on_solutions(sols2, sols3, sols4):
    pairs = list(itertools.product(sols2 + sols3, repeat=2))
    pairs = [(a, b) for a, b in pairs if a.n == b.n]
    pairs += list(itertools.product(sols4[::5], sols4[::3]))
    found = 0
    for a, b in pairs:
        mu = isomorphic_set(a, b)
        assert mu == brute_force_isomorphism(a, b)
        found += mu is not None
    assert 0 < found < len(pairs)


def test_isomorphic_set_matches_brute_force_on_arbitrary_tables():
    # tables that need not be bijections: the point signatures must still
    # be relabeling invariants
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 4)
        table = lambda: tuple(tuple(rng.randint(1, n) for _ in range(n)) for _ in range(n))
        a = SetSolution(n, table(), table())
        image = list(range(1, n + 1))
        rng.shuffle(image)
        b = relabeled(a, image) if rng.random() < 0.7 else SetSolution(n, table(), table())
        assert isomorphic_set(a, b) == brute_force_isomorphism(a, b)


def test_isomorphic_set_rejects_large_non_isomorphic_pair_fast():
    n = 14
    swap = (2, 1) + tuple(range(3, n + 1))
    constant_transposition = SetSolution(n, (swap,) * n, (swap,) * n)
    start = time.perf_counter()
    assert isomorphic_set(trivial_solution(n), constant_transposition) is None
    assert time.perf_counter() - start < 1.0


def test_isomorphic_set_size_mismatch():
    with pytest.raises(ShapeError, match=r"^solutions have different sizes: 2 and 3$"):
        isomorphic_set(trivial_solution(2), trivial_solution(3))


def test_json_roundtrip():
    for s in [trivial_solution(2), swap_solution(), cycle_solution3()]:
        assert solution_from_json(solution_to_json(s)) == s


def test_json_frozen_format():
    s = SetSolution(3, ((1, 2, 3), (1, 2, 3), (2, 1, 3)),
                    ((1, 2, 3), (1, 2, 3), (2, 1, 3)))
    text = solution_to_json(s)
    assert text == ('{"gamma": [[1, 2, 3], [1, 2, 3], [2, 1, 3]], "n": 3, '
                    '"sigma": [[1, 2, 3], [1, 2, 3], [2, 1, 3]]}')
    assert json.loads(text)["n"] == 3


def test_json_accepts_non_bijective_tables():
    s = solution_from_json('{"n": 2, "sigma": [[1, 1], [1, 2]], '
                           '"gamma": [[1, 2], [1, 2]]}')
    assert not is_nondegenerate(s)


def test_json_parse_errors():
    gamma = '"gamma": [[1, 2], [1, 2]]}'
    bad_sigma = ['"x"', '[[1, 2]]', '[[1, 3], [1, 2]]', '[[1, true], [1, 2]]',
                 '[[1, 2.0], [1, 2]]', '5', '{"1": [1, 2], "2": [1, 2]}', '["12", "12"]']
    bad = [
        "not json",
        '{"n": 2, "sigma": [[1, 2], [1, 2]]}',
        '{"n": 2.0, "sigma": [[1, 2], [1, 2]], ' + gamma,
        '{"n": true, "sigma": [[1, 2], [1, 2]], ' + gamma,
        '[1, 2]',
        "[" * 100_000,
    ]
    for text in bad:
        with pytest.raises(ParseError):
            solution_from_json(text)
    for sigma in bad_sigma:     # a malformed table is named
        with pytest.raises(ParseError, match="sigma"):
            solution_from_json(f'{{"n": 2, "sigma": {sigma}, ' + gamma)
    with pytest.raises(ParseError, match=r"^n must be an integer$"):
        solution_from_json('{"n": "2", "sigma": [[1, 2], [1, 2]], "gamma": [[1, 2], [1, 2]]}')
    for sigma in ['"x"', '"12"', '{"1": [1, 2], "2": [1, 2]}']:     # text or keys, not tables
        with pytest.raises(ParseError, match=r"^sigma must be a sequence of tables$"):
            solution_from_json(f'{{"n": 2, "sigma": {sigma}, ' + gamma)
    with pytest.raises(ParseError, match=r"^gamma must be a sequence of tables$"):
        solution_from_json('{"n": 2, "sigma": [[1, 2], [1, 2]], "gamma": "12"}')
