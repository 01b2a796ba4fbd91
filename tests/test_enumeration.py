"""Exhaustive search: counts pinned by a second route, dedupe, resource caps."""

import gc

import pytest

from conftest import (
    bijection_level_oracle,
    brute_force_isomorphism,
    cycle_solution3,
    relabeled,
    trivial_solution,
)
from ybekit.enumeration import (
    EnumerationConfig,
    EnumerationLimitError,
    enumerate_solutions,
    iso_classes,
)
from ybekit.setsolutions import (
    SetSolution,
    check_solution,
    invert_table,
)


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(0)
    with pytest.raises(ValueError):
        EnumerationConfig(2, limit=0)
    with pytest.raises(ValueError):
        EnumerationConfig(2, max_n=0)
    with pytest.raises(ValueError, match=r"at most 9: the 10!\*10 permutation table"):
        EnumerationConfig(2, max_n=10)
    assert EnumerationConfig(2, max_n=9).max_n == 9
    # no coercion: a float, bool or str n, limit or max_n is a TypeError
    for kwargs in [dict(n=2.0), dict(n=True), dict(n="2"), dict(n=2, limit=1.5),
                   dict(n=2, limit=True), dict(n=2, max_n=True), dict(n=2, max_n=4.0)]:
        with pytest.raises(TypeError, match=r"^n, limit and max_n must be integers$"):
            EnumerationConfig(**kwargs)


def test_counts_frozen(sols2, sols3, sols4):
    assert enumerate_solutions(EnumerationConfig(1)) == [trivial_solution(1)]
    assert len(sols2) == 2
    assert len(sols3) == 12
    assert len(sols4) == 168


def test_n2_solutions_frozen(sols2):
    assert sols2[0] == trivial_solution(2)
    assert sols2[1] == SetSolution(2, ((2, 1), (2, 1)), ((2, 1), (2, 1)))


def test_all_emitted_pass_checks(sols3):
    for s in sols3:
        rep = check_solution(s)
        assert rep.nondegenerate and rep.involutive and rep.braided


def test_output_sorted_and_deterministic(sols3):
    assert [s.sigma for s in sols3] == sorted(s.sigma for s in sols3)
    again = enumerate_solutions(EnumerationConfig(3))
    assert again == sols3


def test_sigma_level_equals_bijection_level_oracle(sols2, sols3):
    assert bijection_level_oracle(1) == enumerate_solutions(EnumerationConfig(1))
    assert bijection_level_oracle(2) == sols2
    assert bijection_level_oracle(3) == sols3


def test_dedupe_counts(sols2, sols3, sols4):
    assert len(iso_classes(sols2)) == 2
    assert len(iso_classes(sols3)) == 5
    assert len(iso_classes(sols4)) == 23


def test_published_class_counts(leaders5):
    # Etingof, Schedler & Soloviev, Duke Math. J. 100 (1999): 1, 2, 5, 23, 88, ...
    counts = [len(enumerate_solutions(EnumerationConfig(n, dedupe=True)))
              for n in range(1, 5)]
    assert counts == [1, 2, 5, 23]
    # the fixture searches under the README's 10 476-node budget
    leaders, sizes = leaders5
    assert len(leaders) == 88
    assert len(sizes) == 88 and sum(sizes) == 2640


def test_dedupe_search_matches_the_oracle(sols2, sols3, sols4):
    # the lex-leader search keeps exactly the least member of each class,
    # in sorted order, and sizes the classes by their automorphisms; the
    # labeled search counts each solution once
    labeled = {1: enumerate_solutions(EnumerationConfig(1)), 2: sols2, 3: sols3, 4: sols4}
    for n, sols in labeled.items():
        sizes: list[int] = []
        classes = iso_classes(sols)
        leaders = [c[0] for c in classes]
        assert enumerate_solutions(EnumerationConfig(n, dedupe=True), sizes) == leaders
        assert sizes == [len(c) for c in classes]
        sizes = []
        assert enumerate_solutions(EnumerationConfig(n), sizes) == sols
        assert sizes == [1] * len(sols)


def test_iso_classes_structure_n4(sols4):
    classes = iso_classes(sols4)
    assert len(classes) == 23
    assert sum(len(c) for c in classes) == 168
    for cls in classes:
        assert cls[0] == min(cls, key=lambda s: (s.sigma, s.gamma))
        for member in cls:
            assert brute_force_isomorphism(cls[0], member) is not None
    reps = [cls[0] for cls in classes]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert brute_force_isomorphism(a, b) is None


def test_iso_classes_splits_shared_refinement_buckets(leaders5):
    # refinement gives some n = 5 classes equal colours, so the buckets alone
    # would merge them; each leader and a relabeled copy of it form a class
    leaders = leaders5[0]
    copies = [relabeled(s, (2, 3, 4, 5, 1)) for s in leaders]
    classes = iso_classes(leaders + copies)
    assert [c[0] for c in classes] == leaders
    for cls, s, t in zip(classes, leaders, copies):
        assert cls == sorted([s, t], key=lambda v: (v.sigma, v.gamma))


def test_enumeration_leaves_no_reference_cycles():
    # a cycle would keep every solution alive until the next collection
    gc.collect()
    enumerate_solutions(EnumerationConfig(4, dedupe=True))
    assert gc.collect() == 0


def test_iso_class_sizes_frozen(sols3):
    classes = iso_classes(sols3)
    assert [len(c) for c in classes] == [1, 3, 3, 3, 2]
    assert sum(len(c) for c in classes) == len(sols3)


def test_iso_classes_structure(sols3):
    classes = iso_classes(sols3)
    reps = [cls[0] for cls in classes]
    for cls in classes:
        assert cls[0] == min(cls, key=lambda s: (s.sigma, s.gamma))
        for member in cls:
            assert brute_force_isomorphism(cls[0], member) is not None
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert brute_force_isomorphism(a, b) is None


def test_dedupe_removes_relabeled_duplicate():
    s = cycle_solution3()
    mu = (2, 3, 1)
    inv = invert_table(mu)
    relabel = lambda tables: tuple(
        tuple(mu[tables[inv[x] - 1][inv[y] - 1] - 1] for y in range(3))
        for x in range(3))
    t = SetSolution(3, relabel(s.sigma), relabel(s.gamma))
    assert iso_classes([s, t]) == [sorted([s, t], key=lambda v: (v.sigma, v.gamma))]


def test_dedupe_empty():
    assert iso_classes([]) == []


def test_iso_classes_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        iso_classes([trivial_solution(2), trivial_solution(3)])


def test_size_cap():
    with pytest.raises(EnumerationLimitError):
        enumerate_solutions(EnumerationConfig(5))
    assert len(enumerate_solutions(EnumerationConfig(2, max_n=2))) == 2
    with pytest.raises(EnumerationLimitError):
        enumerate_solutions(EnumerationConfig(3, max_n=2))


def test_candidate_space_limit():
    # the limit budgets the search nodes, the root included: 2, 5, 43 and
    # 1 599 for n = 1..4, far below the (n!)^n sigma assignments; under
    # dedupe the lex-leader cuts leave 2, 5, 30 and 361
    for dedupe, rows in [(False, [(1, 2, 1), (2, 5, 2), (3, 43, 12), (4, 1599, 168)]),
                         (True, [(1, 2, 1), (2, 5, 2), (3, 30, 5), (4, 361, 23)])]:
        for n, nodes, count in rows:
            with pytest.raises(EnumerationLimitError, match=f"budget of {nodes - 1} nodes"):
                enumerate_solutions(EnumerationConfig(n, dedupe=dedupe, limit=nodes - 1))
            found = enumerate_solutions(EnumerationConfig(n, dedupe=dedupe, limit=nodes))
            assert len(found) == count


def test_limit_error_is_runtime_error():
    assert issubclass(EnumerationLimitError, RuntimeError)
