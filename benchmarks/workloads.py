"""The three benchmark workloads.

Each workload builds its inputs from the seed (`prepare`), lists its items in
a seeded order (`schedule`), runs one item through the library (`run`, the
timed part) and checks that item's outputs exactly (`check`, untimed; it
returns a list of problems, empty when the outputs are right).  `digest`
names an item and its outputs for the determinism test.

The library is reached through `lib`, a namespace of freshly imported
`ybekit` modules, and every call looks its function up at call time, so the
traced run sees the wrappers installed after the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23}      # Etingof, Schedler & Soloviev (1999)


@dataclass(frozen=True)
class Item:
    index: int
    spec: tuple
    ends_round: bool = True


class Workload:
    """Defaults for workloads that write no files.

    `tail_percentile` is fixed, so that two commits report the same
    percentile: one with at least ten samples beyond it in every run of
    this benchmark's first measurement, with a margin for slower runs.
    """

    def bytes_written(self, out) -> int:
        return 0

    def clean(self, out) -> None:
        pass


def _rng(workload: str, seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(p) for p in (workload, seed) + salt))


def digest_of(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def load_class_reps(lib) -> dict[int, list]:
    """The frozen isomorphism-class representatives, n = 1..4, by size."""
    reps: dict[int, list] = {}
    for line in (DATA / "class_reps.jsonl").read_text().splitlines():
        s = lib.setsolutions.solution_from_json(line)
        reps.setdefault(s.n, []).append(s)
    return reps


# --- theorem_a_sweep ---------------------------------------------------------

MATRIX_CHECK_MAX_POINTS = 6

# One round of pairs: 15 of two size-4 factors (most of a full sweep's
# time), 2 with n*m = 6 points (the matrix-form checks at their largest
# size) and 3 from the other size cells.  With these shares the median item
# falls inside the size-4 cluster and the p95 item among the n*m = 6 pairs.
SWEEP_ROUND = (("4x4", 15), ("six", 2), ("rest", 3))
SWEEP_ROUND_SIZE = sum(count for _, count in SWEEP_ROUND)
SWEEP_ROUNDS_POOL = 32


def _sweep_group(n: int, m: int) -> str:
    return "4x4" if n == m == 4 else "six" if n * m == 6 else "rest"


def _stratified(rng, cells: list[list]) -> list:
    """The pairs of all cells in a seeded order in which every prefix holds
    each cell's share of the pairs, give or take one."""
    keyed = []
    for pairs in cells:
        pairs = list(pairs)
        rng.shuffle(pairs)
        offset = rng.random()
        keyed.extend(((k + offset) / len(pairs), pair) for k, pair in enumerate(pairs))
    keyed.sort()
    return [pair for _, pair in keyed]


class TheoremASweep(Workload):
    name = "theorem_a_sweep"
    why = ("the paper's verifier on seeded pairs of the 31 class representatives: "
           "sparse blockmat construction, products and ==, plus the setsolutions axiom gates")
    trace_items = 2 * SWEEP_ROUND_SIZE
    tail_percentile = 95.0

    def prepare(self, lib, seed: int, work_dir: Path):
        by_size = load_class_reps(lib)
        reps = [s for n in sorted(by_size) for s in by_size[n]]
        rng = _rng(self.name, seed)
        cells: dict[tuple, list] = {}
        for i, j in itertools.product(range(len(reps)), repeat=2):
            cells.setdefault((reps[i].n, reps[j].n), []).append((i, j))
        pools = {group: _stratified(rng, [pairs for (n, m), pairs in sorted(cells.items())
                                          if _sweep_group(n, m) == group])
                 for group, _ in SWEEP_ROUND}
        slots = [group for group, count in SWEEP_ROUND for _ in range(count)]
        rounds = []
        for _ in range(SWEEP_ROUNDS_POOL):
            rng.shuffle(slots)
            rounds.append(tuple(slots))
        return {"reps": reps, "pools": pools, "rounds": rounds}

    def schedule(self, inputs):
        rounds, pools = inputs["rounds"], inputs["pools"]
        used = dict.fromkeys(pools, 0)
        for k in itertools.count():
            group = rounds[(k // SWEEP_ROUND_SIZE) % len(rounds)][k % SWEEP_ROUND_SIZE]
            pool = pools[group]
            yield Item(k, pool[used[group] % len(pool)],
                       ends_round=(k + 1) % SWEEP_ROUND_SIZE == 0)
            used[group] += 1

    def warm_up(self, inputs) -> Item:
        return Item(-1, inputs["pools"]["rest"][-1])

    def run(self, lib, inputs, item: Item):
        x, y = (inputs["reps"][i] for i in item.spec)
        result = lib.repmat.verify_theorem_a(x, y, check=True)
        points = x.n * y.n
        if points > MATRIX_CHECK_MAX_POINTS:
            return result, None
        c = lib.repmat.representing_matrix(lib.setsolutions.direct_product(x, y)).matrix
        return result, (lib.repmat.ybe_check_scalar(c, points),
                        lib.repmat.ybe_check_matrix(c, points),
                        lib.repmat.qybe_check(lib.repmat.compose_flip(c, points, "left"),
                                              points))

    def check(self, lib, inputs, item: Item, output) -> list[str]:
        result, matrix_checks = output
        x, y = (inputs["reps"][i] for i in item.spec)
        problems = []
        if not (result.ok is True and result.witness is None
                and (result.n, result.m) == (x.n, y.n)
                and result.verdict_line() == f"THEOREM_A ok n={x.n} m={y.n} pairs=1"):
            problems.append(f"pair {item.spec}: {result!r}")
        expect_matrix = x.n * y.n <= MATRIX_CHECK_MAX_POINTS
        if expect_matrix != (matrix_checks is not None) or (
                expect_matrix and matrix_checks != (True, True, True)):
            problems.append(f"pair {item.spec}: matrix checks {matrix_checks}")
        return problems

    def digest(self, item: Item, output) -> str:
        result, matrix_checks = output
        return digest_of(item.spec, result.ok, result.n, result.m, matrix_checks)


# --- dense_algebra -----------------------------------------------------------

# One round of cases: each (n, m) of {2, 3}^2 once, so products have
# orders 16, 36 and 81 and every cell has a quarter of the items.
DENSE_ROUND = ((2, 2), (2, 3), (3, 2), (3, 3))
DENSE_POOL_ROUNDS = 12


@dataclass(frozen=True)
class DenseCase:
    n: int
    m: int
    a: object          # order n*n, cut into an n x n grid
    b: object          # order m*m, cut into an m x m grid
    c: object          # second factors of the mixed product
    d: object
    ap: object
    bp: object
    cp: object
    la: object         # unit lower triangular parts of a and b
    lb: object
    key: str           # fingerprint of the generated entries


def _random_matrix(lib, rng, order: int):
    return lib.blockmat.Matrix(order, order, [
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order * order)])


def _unit_lower(lib, m):
    rows = m.to_rows()
    k = m.rows
    return lib.blockmat.Matrix(k, k, [1 if i == j else (rows[i][j] if j < i else 0)
                                      for i in range(k) for j in range(k)])


def _square_grid(lib, m, size: int):
    return lib.blockmat.PartitionedMatrix.uniform(m, size, size)


class DenseAlgebra(Workload):
    name = "dense_algebra"
    why = ("dense random rationals through every product, @, inverse and CSV: "
           "Fraction arithmetic dominates, setsolutions/repmat/enumeration idle")
    trace_items = len(DENSE_ROUND)
    tail_percentile = 65.0

    def prepare(self, lib, seed: int, work_dir: Path):
        bm = lib.blockmat
        order_rng = _rng(self.name, seed)
        cases = []
        for _ in range(DENSE_POOL_ROUNDS):
            sizes = list(DENSE_ROUND)
            order_rng.shuffle(sizes)
            for n, m in sizes:
                rng = _rng(self.name, seed, len(cases))
                a, c = (_random_matrix(lib, rng, n * n) for _ in range(2))
                b, d = (_random_matrix(lib, rng, m * m) for _ in range(2))
                cases.append(DenseCase(n, m, a, b, c, d,
                                       _square_grid(lib, a, n), _square_grid(lib, b, m),
                                       _square_grid(lib, c, n),
                                       _unit_lower(lib, a), _unit_lower(lib, b),
                                       digest_of([x.to_rows() for x in (a, b, c, d)])))
        # Sandwich matrices of the similarity ts(A, B) = L (A (x) B) R for
        # uniform square grids, one pair per (n, m).
        sandwich = {}
        for n, m in set(DENSE_ROUND):
            sandwich[(n, m)] = tuple(
                bm.kronecker(bm.kronecker(bm.identity(n), bm.commutation_matrix(p, q)),
                             bm.identity(m))
                for p, q in ((m, n), (n, m)))
        return {"cases": cases, "sandwich": sandwich}

    def schedule(self, inputs):
        cases = inputs["cases"]
        for k in itertools.count():
            case = cases[k % len(cases)]
            yield Item(k, (k % len(cases), case.n, case.m, case.key),
                       ends_round=(k + 1) % len(DENSE_ROUND) == 0)

    def warm_up(self, inputs) -> Item:
        cases = inputs["cases"]
        k, case = next((k, c) for k, c in enumerate(cases) if (c.n, c.m) == (2, 2))
        return Item(-1, (k, case.n, case.m, case.key))

    def run(self, lib, inputs, item: Item):
        bm = lib.blockmat
        case = inputs["cases"][item.spec[0]]
        k1 = bm.kronecker(case.a, case.b)
        k2 = bm.kronecker(case.c, case.d)
        ts = bm.tracy_singh(case.ap, case.bp)
        kr = bm.khatri_rao(case.ap, case.cp)
        had = bm.hadamard(k1, k2)
        prod = k1 @ k2
        tri = bm.kronecker(case.la, case.lb)
        inv = bm.inverse(tri)
        text = bm.format_matrix_csv(ts.matrix, ts.partition)
        back = bm.parse_partitioned_csv(text)
        return {"k1": k1, "k2": k2, "ts": ts, "kr": kr, "had": had, "prod": prod,
                "tri": tri, "inv": inv, "text": text, "back": back}

    def check(self, lib, inputs, item: Item, out) -> list[str]:
        bm = lib.blockmat
        case = inputs["cases"][item.spec[0]]
        n, m = case.n, case.m
        left, right = inputs["sandwich"][(n, m)]
        problems = []

        def expect(ok: bool, what: str) -> None:
            if not ok:
                problems.append(f"case {item.spec[0]} (n={n}, m={m}): {what}")

        expect(_is_kronecker(out["k1"], case.a, case.b), "kronecker(a, b) entries")
        expect(_is_kronecker(out["k2"], case.c, case.d), "kronecker(c, d) entries")
        expect(_is_kronecker(out["tri"], case.la, case.lb), "kronecker(la, lb) entries")
        expect(out["ts"].matrix == left @ out["k1"] @ right,
               "commutation similarity ts == L (a (x) b) R")
        expect(out["ts"].partition == bm.BlockPartition((n * m,) * (n * m), (n * m,) * (n * m)),
               "tracy_singh partition")
        kr_grid = _square_grid(lib, out["kr"], n * n)
        ts_ac = bm.tracy_singh(case.ap, case.cp)
        expect(all(kr_grid.block(i, j) == ts_ac.block((i - 1) * n + i, (j - 1) * n + j)
                   for i in range(1, n + 1) for j in range(1, n + 1)),
               "khatri_rao blocks are the diagonal tracy_singh blocks")
        expect(out["had"].to_rows() == [[x * y for x, y in zip(r1, r2)] for r1, r2 in
                                        zip(out["k1"].to_rows(), out["k2"].to_rows())],
               "hadamard entries")
        expect(out["prod"] == bm.kronecker(case.a @ case.c, case.b @ case.d),
               "mixed-product law")
        expect(out["tri"] @ out["inv"] == bm.identity(out["tri"].rows), "inverse law")
        expect(out["back"].matrix == out["ts"].matrix
               and out["back"].partition == out["ts"].partition, "CSV round trip")
        return problems

    def digest(self, item: Item, out) -> str:
        csv = [out["text"]] + [format(out[k].to_rows()) for k in ("kr", "had", "prod", "inv")]
        return digest_of(item.spec, csv)


def _is_kronecker(k, a, b) -> bool:
    ar, br = a.to_rows(), b.to_rows()
    return k.to_rows() == [[x * y for x in arow for y in brow]
                           for arow in ar for brow in br]


# --- enumerate_classes -------------------------------------------------------

ENUM_N = 4
ENUM_SOLUTIONS = 168
RELABELED_PER_ITEM = 4
RELABEL_POOL = 32


def _relabel(lib, s, mu):
    """The solution s carried along the relabeling mu (1-based images)."""
    n = s.n
    sigma = [[0] * n for _ in range(n)]
    gamma = [[0] * n for _ in range(n)]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            sigma[mu[x - 1] - 1][mu[y - 1] - 1] = mu[s.sigma[x - 1][y - 1] - 1]
            gamma[mu[y - 1] - 1][mu[x - 1] - 1] = mu[s.gamma[y - 1][x - 1] - 1]
    return lib.setsolutions.SetSolution(n, tuple(map(tuple, sigma)), tuple(map(tuple, gamma)))


def _is_isomorphism(sa, sb, mu) -> bool:
    n = sa.n
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            u, v = sa.sigma[x - 1][y - 1], sa.gamma[y - 1][x - 1]
            mx, my = mu[x - 1], mu[y - 1]
            if (sb.sigma[mx - 1][my - 1], sb.gamma[my - 1][mx - 1]) != (mu[u - 1], mu[v - 1]):
                return False
    return True


class EnumerateClasses(Workload):
    name = "enumerate_classes"
    why = ("the CLI enumerating all n=4 solutions up to isomorphism: enumeration, "
           "setsolutions braid and isomorphism search and cli at work, blockmat idle")
    trace_items = 2
    tail_percentile = 60.0

    def prepare(self, lib, seed: int, work_dir: Path):
        reps = load_class_reps(lib)[ENUM_N]
        relabeled = []
        for k in range(RELABEL_POOL):
            rng = _rng(self.name, seed, k)
            chosen = []
            for idx in rng.sample(range(len(reps)), RELABELED_PER_ITEM):
                mu = list(range(1, ENUM_N + 1))
                rng.shuffle(mu)
                chosen.append((idx, tuple(mu), _relabel(lib, reps[idx], mu)))
            relabeled.append(chosen)
        return {"reps": reps, "relabeled": relabeled, "work_dir": work_dir}

    def schedule(self, inputs):
        for k in itertools.count():
            yield Item(k, (k % RELABEL_POOL,
                           tuple((idx, mu) for idx, mu, _ in
                                 inputs["relabeled"][k % RELABEL_POOL])))

    def warm_up(self, inputs) -> Item:
        return next(self.schedule(inputs))

    def run(self, lib, inputs, item: Item):
        out_dir = inputs["work_dir"] / f"enumerate-{item.index + 1}"
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = lib.cli.main(["enumerate", str(ENUM_N), "--dedupe", "--out-dir", str(out_dir)])
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                "out_dir": out_dir}

    def bytes_written(self, out) -> int:
        files = sum(p.stat().st_size for p in out["out_dir"].glob("*") if p.is_file())
        return len(out["stdout"].encode()) + len(out["stderr"].encode()) + files

    def check(self, lib, inputs, item: Item, out) -> list[str]:
        ss = lib.setsolutions
        reps = inputs["reps"]
        problems = []
        lines = out["stdout"].splitlines()
        sizes = [int(mt.group(2)) for mt in
                 (re.fullmatch(r"class (\d+): size (\d+)", ln) for ln in lines[2:]) if mt]
        if out["code"] != 0 or out["stderr"]:
            problems.append(f"exit code {out['code']}, stderr {out['stderr']!r}")
        if (lines[:2] != [f"{ENUM_SOLUTIONS} solutions", f"{len(reps)} classes"]
                or len(sizes) != len(lines) - 2 or len(sizes) != len(reps)
                or sum(sizes) != ENUM_SOLUTIONS):
            problems.append(f"summary {lines[:2]}, class sizes {sizes}")
        files = sorted(out["out_dir"].glob("*.json"))
        loaded = []
        for path in files:
            s = ss.solution_from_json(path.read_text())
            report = ss.check_solution(s)
            if not (report.nondegenerate.ok and report.involutive.ok and report.braided.ok):
                problems.append(f"{path.name} fails the axiom checks: {report}")
            loaded.append(s)
        if [p.name for p in files] != [f"class_{k:03d}.json" for k in range(1, len(reps) + 1)]:
            problems.append(f"emitted files {[p.name for p in files]}")
        matches = [[k for k, rep in enumerate(reps) if ss.isomorphic_set(rep, s) is not None]
                   for s in loaded]
        if sorted(sum(matches, [])) != list(range(len(reps))):
            problems.append(f"emitted classes match frozen classes {matches}")
        for idx, mu, image in inputs["relabeled"][item.spec[0]]:
            found = ss.isomorphic_set(reps[idx], image)
            if found is None or not _is_isomorphism(reps[idx], image, found.image):
                problems.append(f"relabeling {mu} of representative {idx + 1}: found {found}")
        for a, b in itertools.combinations(range(len(loaded)), 2):
            if ss.isomorphic_set(loaded[a], loaded[b]) is not None:
                problems.append(f"representatives {a + 1} and {b + 1} are isomorphic")
        return problems

    def digest(self, item: Item, out) -> str:
        files = [(p.name, p.read_text()) for p in sorted(out["out_dir"].glob("*"))]
        return digest_of(item.spec, out["code"], out["stdout"], out["stderr"], files)

    def clean(self, out) -> None:
        shutil.rmtree(out["out_dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (TheoremASweep(), DenseAlgebra(), EnumerateClasses())}
