"""Exhaustive generation of the non-degenerate involutive braided solutions
on a small set, with optional collapsing up to relabeling.

A depth-first search assigns sigma_1, sigma_2, ... in lexicographic order.
It cuts a branch when a cycle-set identity sigma_x sigma_a = sigma_y sigma_b,
a = sigma_x^{-1}(y), b = sigma_y^{-1}(x) (Rump, Adv. Math. 193, 2005) fails
and forces a table when the other three are assigned; leaves derive gamma
and must pass the full axiom checks.  Classes are keyed by the canonical
form: the least (sigma, gamma) over all n! relabelings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf

from .errors import require_ints
from .setsolutions import SetSolution, axiom_failure


class EnumerationLimitError(RuntimeError):
    """The requested enumeration exceeds the configured resource cap."""


@dataclass(frozen=True)
class EnumerationConfig:
    """n: set size; dedupe: collapse isomorphism classes; limit: optional
    budget on the search nodes, the partial sigma assignments visited with
    the empty one included (1 599 at n = 4); max_n: hard size cap, raise it
    explicitly for sweeps beyond 4, up to 9."""

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
        if self.max_n > 9:      # the search tabulates all n! permutations before its first node
            raise ValueError("size cap must be at most 9: the 10!*10 permutation table "
                             "entries are over 10^7")


def enumerate_solutions(cfg: EnumerationConfig) -> list[SetSolution]:
    """All labeled non-degenerate involutive braided solutions on {1..cfg.n},
    sorted lexicographically by flattened sigma tables; with cfg.dedupe, one
    representative per isomorphism class."""
    if cfg.n > cfg.max_n:
        raise EnumerationLimitError(
            f"n={cfg.n} exceeds the size cap {cfg.max_n}; raise max_n for larger sweeps")
    found: list[SetSolution] = []
    inverse = {p: _invert0(p) for p in itertools.permutations(range(cfg.n))}  # lex order
    _extend(cfg.n, [], [], inverse, found, itertools.count(1), cfg.limit or inf)
    return dedupe_up_to_iso(found) if cfg.dedupe else found


def _extend(n, sig, inv, inverse, found, nodes, limit) -> None:
    """Try each 0-based table for sigma_k, k = len(sig); `nodes` numbers the
    visits against `limit`.  Module level, so no closure cycle keeps the
    solutions alive after the search."""
    if next(nodes) > limit:
        raise EnumerationLimitError(f"search exceeds its budget of {limit} nodes")
    k = len(sig)
    if k == n:
        sol = SetSolution(n, [[v + 1 for v in t] for t in sig],
                          [[inv[sig[x][y]][x] + 1 for x in range(n)] for y in range(n)])
        if axiom_failure(sol) is None:
            found.append(sol)
        return
    choices = inverse
    for x, y in itertools.combinations(range(k), 2):
        a, b = inv[x][y], inv[y][x]
        if a == k > b:
            x, y, a, b = y, x, b, a
        if b == k > a:                    # forced: sigma_b = sigma_y^-1 sigma_x sigma_a
            choices = (tuple(inv[y][sig[x][v]] for v in sig[a]),)
            break
    for x in range(k):          # sigma_k sigma_b = sigma_x sigma_a, b = sigma_k^-1(x):
        a = inv[x][k]           # b < k fixes sigma_k = sigma_x sigma_a sigma_b^-1
        if a < k:
            left = [sig[x][v] for v in sig[a]]
            allowed = {tuple(left[v] for v in inv[b]) for b in range(k)}
            choices = [p for p in choices if p in allowed or inverse[p][x] >= k]
    for p in choices:
        sig.append(p)
        inv.append(inverse[p])
        for x, y in itertools.combinations(range(k + 1), 2):
            a, b = inv[x][y], inv[y][x]
            if max(y, a, b) == k and any(sig[x][v] != sig[y][w]
                                         for v, w in zip(sig[a], sig[b])):
                break                     # an identity sigma_k made checkable fails
        else:
            _extend(n, sig, inv, inverse, found, nodes, limit)
        sig.pop()
        inv.pop()


def _invert0(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def iso_classes(sols: list[SetSolution]) -> list[list[SetSolution]]:
    """Partition into isomorphism classes by canonical form; classes are
    ordered by their lexicographically least member, which comes first."""
    if any(s.n != sols[0].n for s in sols):
        raise ValueError("all solutions must live on sets of the same size")
    classes: dict[tuple, list[SetSolution]] = {}
    relabelings = [((0,) + tuple(v + 1 for v in p), _invert0(p))
                   for p in itertools.permutations(range(sols[0].n if sols else 0))]
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


def dedupe_up_to_iso(sols: list[SetSolution]) -> list[SetSolution]:
    """Lexicographically least representative of each isomorphism class."""
    return [cls[0] for cls in iso_classes(sols)]
