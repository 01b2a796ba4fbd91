"""Exhaustive generation of the non-degenerate involutive braided solutions
on a small set, with optional collapsing up to relabeling.

The generator walks every assignment of a permutation sigma_x to each point
x, derives gamma_y(x) = sigma^{-1}_{sigma_x(y)}(x) (the only gamma an
involutive non-degenerate solution can have), and keeps the candidates whose
assembled tables pass the full axiom checks.  Output order is deterministic:
lexicographic in the flattened sigma tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .setsolutions import (SetSolution, _braid_witness, axiom_failure,
                           isomorphic_set)


class EnumerationLimitError(RuntimeError):
    """The requested enumeration exceeds the configured resource cap."""


@dataclass(frozen=True)
class EnumerationConfig:
    """n: set size; dedupe: collapse isomorphism classes; limit: optional
    cap on the candidate space (n!)^n; max_n: hard size cap, raise it
    explicitly for sweeps beyond 4."""

    n: int
    dedupe: bool = False
    limit: int | None = None
    max_n: int = 4

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("set size must be positive")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive when given")
        if self.max_n < 1:
            raise ValueError("size cap must be positive")


def candidate_count(n: int) -> int:
    """Size of the sigma-assignment search space."""
    return factorial(n) ** n


def enumerate_solutions(cfg: EnumerationConfig) -> list[SetSolution]:
    """All labeled non-degenerate involutive braided solutions on {1..cfg.n},
    sorted lexicographically by flattened sigma tables; with cfg.dedupe, one
    representative per isomorphism class."""
    if cfg.n > cfg.max_n:
        raise EnumerationLimitError(
            f"n={cfg.n} exceeds the size cap {cfg.max_n}; raise max_n for larger sweeps")
    if cfg.limit is not None and candidate_count(cfg.n) > cfg.limit:
        raise EnumerationLimitError(
            f"candidate space {candidate_count(cfg.n)} exceeds limit {cfg.limit}")
    n = cfg.n
    rng = range(n)
    perms = list(itertools.permutations(rng))               # lex order
    inv = {p: _invert0(p) for p in perms}
    found = []
    for assign in itertools.product(perms, repeat=n):
        # gamma_y(x) = sigma^{-1}_{sigma_x(y)}(x), 0-based; the candidate is
        # dropped at its first non-bijective gamma table.  Involutivity needs
        # no test here: with gamma derived this way both components of the
        # squared pair map collapse to the identity.
        gammas = []
        for y in rng:
            g = tuple(inv[assign[assign[x][y]]][x] for x in rng)
            if len(set(g)) != n:
                break
            gammas.append(g)
        if len(gammas) < n or _braid_witness(assign, gammas, n) is not None:
            continue
        sol = SetSolution(
            n,
            tuple(tuple(v + 1 for v in t) for t in assign),
            tuple(tuple(v + 1 for v in t) for t in gammas))
        # the 0-based prefilter above only prunes; the full axiom checks
        # stay authoritative for what gets emitted
        if axiom_failure(sol) is None:
            found.append(sol)
    found.sort(key=lambda s: s.sigma)
    if cfg.dedupe:
        return dedupe_up_to_iso(found)
    return found


def _invert0(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def iso_classes(sols: list[SetSolution]) -> list[list[SetSolution]]:
    """Partition into isomorphism classes by brute-force relabeling search;
    classes are ordered by their lexicographically least member."""
    if any(s.n != sols[0].n for s in sols):
        raise ValueError("all solutions must live on sets of the same size")
    classes: list[list[SetSolution]] = []
    for sol in sorted(sols, key=lambda s: (s.sigma, s.gamma)):
        for cls in classes:
            if isomorphic_set(cls[0], sol) is not None:
                cls.append(sol)
                break
        else:
            classes.append([sol])
    return classes


def dedupe_up_to_iso(sols: list[SetSolution]) -> list[SetSolution]:
    """Lexicographically least representative of each isomorphism class."""
    if not sols:
        return []
    return [cls[0] for cls in iso_classes(sols)]
