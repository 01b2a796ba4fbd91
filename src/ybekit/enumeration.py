"""Exhaustive generation of the non-degenerate involutive braided solutions
on a small set, with optional collapsing up to relabeling.

A depth-first search assigns sigma_1, sigma_2, ... in lexicographic order,
pruned by the cycle-set identity T(x, y) = T(y, x) of Rump (Adv. Math. 193,
2005), T(x, y) = sigma_x sigma_{sigma_x^-1(y)} (`setsolutions._cycle_side`).
For the next table sigma_k it forces sigma_y^-1 T(x, y) when sigma_y^-1(x) =
k is the one index missing, allows only T(x, k) sigma_b^-1 with b =
sigma_k^-1(x) < k, and cuts a table that breaks an identity it completes.
Leaves derive gamma and must pass the full axiom checks.

With dedupe the search visits only prefixes of each class's lexicographic
leader, its least member (lex-leader constraints; Akgun, Mereb & Vendramin,
Math. Comp. 91, 2022).  A relabeling mu carries the tables to
sigma'_{mu x}(mu y) = mu sigma_x(y).  With sigma_1..sigma_k assigned, the
tables j = 1, 2, ... are compared while j and mu^{-1}(j) are both at most k,
and the node is cut when the first table that differs is smaller in sigma'.
At a leaf every table is known, so the test is exact and each class keeps
its least member.  The relabelings still undecided there fix every sigma
table, and so gamma, which sigma determines: with the identity they are
Aut(s), and by orbit-stabilizer the class of s has n!/|Aut(s)| members.
`iso_classes`, which keys labeled solutions by their least relabeling, is
the oracle for both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, inf

from .errors import require_ints
from .setsolutions import SetSolution, _cycle_side, axiom_failure


class EnumerationLimitError(RuntimeError):
    """The requested enumeration exceeds the configured resource cap."""


@dataclass(frozen=True)
class EnumerationConfig:
    """n: set size; dedupe: keep only the least member of each isomorphism
    class, cutting every partial sigma assignment that a relabeling makes
    lexicographically smaller; limit: optional budget on the search nodes,
    the partial sigma assignments visited with the empty one included (1 599
    at n = 4, 361 under dedupe, which counts a node before its leader test);
    max_n: hard size cap, raise it explicitly for sweeps beyond 4, up to 9."""

    n: int
    dedupe: bool = False
    limit: int | None = None
    max_n: int = 4

    def __post_init__(self):
        require_ints((self.n, self.max_n) + (() if self.limit is None else (self.limit,)),
                     "n, limit and max_n must be integers")
        if self.n < 1:
            raise ValueError("set size must be positive")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive when given")
        if self.max_n < 1:
            raise ValueError("size cap must be positive")
        if self.max_n > 9:      # the dedupe search tabulates all n! relabelings
            raise ValueError("size cap must be at most 9: the 10!*10 permutation table "
                             "entries are over 10^7")


def enumerate_solutions(cfg: EnumerationConfig,
                        sizes: list[int] | None = None) -> list[SetSolution]:
    """All labeled non-degenerate involutive braided solutions on {1..cfg.n},
    sorted lexicographically by flattened sigma tables; with cfg.dedupe, the
    least member of each isomorphism class, in the same order.  A `sizes`
    list receives, per solution returned, how many labeled solutions it
    stands for: its class size n!/|Aut(s)| under cfg.dedupe, else 1."""
    if cfg.n > cfg.max_n:
        raise EnumerationLimitError(
            f"n={cfg.n} exceeds the size cap {cfg.max_n}; raise max_n for larger sweeps")
    found: list[tuple[SetSolution, int]] = []
    _extend(cfg.n, [], [], {}, [] if cfg.dedupe else None, found, itertools.count(1),
            cfg.limit or inf)
    if sizes is not None:
        sizes.extend(size for _, size in found)
    return [sol for sol, _ in found]


def _extend(n, sig, inv, inverse, rivals, found, nodes, limit) -> None:
    """Try each 0-based table for sigma_k, k = len(sig); `nodes` numbers the
    visits against `limit`; `inverse` keeps the inverse of each table tried,
    filled as the search reaches it, not up front; `found` gets (solution,
    class size) pairs.  Under dedupe `rivals` holds the relabelings, identity
    aside, that the assigned tables have not yet told apart from it: the root
    passes an empty list, which the first leader test (k = 1) fills once, and
    a relabeling that makes the tables larger is dropped, since it can cut no
    descendant; at a leaf the rest fix it.  Module level, so no closure cycle
    keeps the solutions alive after the search."""
    if next(nodes) > limit:
        raise EnumerationLimitError(f"search exceeds its budget of {limit} nodes")
    k = len(sig)
    if rivals is not None and k:
        if k == 1 and not rivals:       # after the root is counted: no n! set-up
            rivals.extend(_relabelings(n)[1:])
        undecided = []
        for mu, mu_inv in rivals:
            order = _relabeled_order(sig, mu, mu_inv)
            if order < 0:
                return
            if order == 0:
                undecided.append((mu, mu_inv))
        rivals = undecided
    if k == n:
        sol = SetSolution(n, [[v + 1 for v in t] for t in sig],
                          [[inv[sig[x][y]][x] + 1 for x in range(n)] for y in range(n)])
        if axiom_failure(sol) is None:
            found.append((sol, 1 if rivals is None else factorial(n) // (len(rivals) + 1)))
        return
    choices = itertools.permutations(range(n))      # lex order
    for x, y in itertools.product(range(k), repeat=2):
        if inv[y][x] == k > inv[x][y]:      # forced: sigma_k = sigma_y^-1 T(x, y)
            choices = (tuple(map(inv[y].__getitem__, _cycle_side(sig, inv, x, y))),)
            break
    for x in range(k):          # T(x, k) = sigma_k sigma_b, b = sigma_k^-1(x):
        if inv[x][k] < k:       # b < k fixes sigma_k = T(x, k) sigma_b^-1
            left = _cycle_side(sig, inv, x, k)
            allowed = {tuple(map(left.__getitem__, inv[b])) for b in range(k)}
            choices = [p for p in choices if p in allowed or p.index(x) >= k]
    for p in choices:
        sig.append(p)
        q = inverse.get(p)
        if q is None:
            q = inverse[p] = _invert0(p)
        inv.append(q)
        for x, y in itertools.combinations(range(k + 1), 2):
            if (max(y, inv[x][y], inv[y][x]) == k
                    and _cycle_side(sig, inv, x, y) != _cycle_side(sig, inv, y, x)):
                break                     # an identity sigma_k made checkable fails
        else:
            _extend(n, sig, inv, inverse, rivals, found, nodes, limit)
        sig.pop()
        inv.pop()


def _relabelings(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every relabeling of {0..n-1} with its inverse, the identity first."""
    return [(mu, _invert0(mu)) for mu in itertools.permutations(range(n))]


def _relabeled_order(tables, mu, mu_inv) -> int:
    """Compare the relabeled 0-based tables t'_j[i] = mu t_{mu^-1 j}[mu^-1 i]
    with t_j for j = 0, 1, ... while j and mu^-1 j are below k = len(tables):
    -1 or 1 as t' or t is smaller at the first that differs, 0 if none does
    (at k = n, mu then fixes every table)."""
    k = len(tables)
    for j in range(k):
        if mu_inv[j] >= k:
            return 0
        row = tuple(map(mu.__getitem__, map(tables[mu_inv[j]].__getitem__, mu_inv)))
        if row != tables[j]:
            return -1 if row < tables[j] else 1
    return 0


def _invert0(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def iso_classes(sols: list[SetSolution]) -> list[list[SetSolution]]:
    """Partition into isomorphism classes by canonical form; classes are
    ordered by their lexicographically least member, which comes first."""
    if any(s.n != sols[0].n for s in sols):
        raise ValueError("all solutions must live on sets of the same size")
    classes: dict[tuple, list[SetSolution]] = {}
    relabelings = [((0,) + tuple(v + 1 for v in mu), mu_inv)
                   for mu, mu_inv in _relabelings(sols[0].n if sols else 0)]
    for sol in sorted(sols, key=lambda s: (s.sigma, s.gamma)):
        classes.setdefault(_canonical(sol, relabelings), []).append(sol)
    return list(classes.values())


def _canonical(s: SetSolution, relabelings) -> tuple:
    """Least (sigma, gamma) over the relabelings of s; gamma is relabeled
    only where sigma reaches its least form."""
    sigmas = [_relabel(s.sigma, mu, inv) for mu, inv in relabelings]
    least = min(sigmas)
    return least, min(_relabel(s.gamma, mu, inv)
                      for sig, (mu, inv) in zip(sigmas, relabelings) if sig == least)


def _relabel(tables, mu, inv) -> tuple:
    """t'[mu x][mu y] = mu t[x][y]; mu maps 1-based values, inv is 0-based."""
    return tuple(tuple(map(mu.__getitem__, map(tables[i].__getitem__, inv))) for i in inv)
