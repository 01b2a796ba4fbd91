"""Command line front end.  Every subcommand is a thin wrapper over the
library: parse inputs, call one function, print its result.

Exit codes: 0 success (or checked-true), 1 a performed check came out
false, 2 unreadable or malformed input (or a bad request), 3 dimension or
partition mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .blockmat import (csv_partition, format_matrix_csv, hadamard, khatri_rao, kronecker,
                       parse_partitioned_csv, tracy_singh)
from .enumeration import EnumerationConfig, EnumerationLimitError, enumerate_solutions
from .errors import AxiomError, ParseError, ShapeError
from .repmat import compose_flip, representing_matrix, verify_theorem_a
from .setsolutions import (AXIOMS, CheckReport, axiom_failure, check_solution, direct_product,
                           isomorphic_set, solution_from_json, solution_to_json)

# Cells the CLI will compute and write for one output matrix or index table.
MAX_OUTPUT_CELLS = 10**7


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_solution(path: str):
    s = solution_from_json(_read_text(path))
    _require_output_cells(s.n ** 2, s.n ** 2)      # its representing matrix: n <= 56
    return s


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _require_output_cells(rows: int, cols: int) -> None:
    if rows * cols > MAX_OUTPUT_CELLS:
        raise ParseError(f"output of {rows}x{cols} is over the {MAX_OUTPUT_CELLS}-entry cap")


def _cmd_product(args) -> int:
    texts = _read_text(args.a), _read_text(args.b)
    # the caps read the shapes and strips before any cell is parsed
    pa, pb = map(csv_partition, texts)
    rows, cols = sum(pa.row_sizes) * sum(pb.row_sizes), sum(pa.col_sizes) * sum(pb.col_sizes)
    if args.op == "khatri-rao":     # the diagonal strip pairs only
        _require_output_cells(*(sum(p * q for p, q in zip(sa, sb)) for sa, sb in (
            (pa.row_sizes, pb.row_sizes), (pa.col_sizes, pb.col_sizes))))
        # _strip_map tabulates every (A index, B index) pair along each axis
        if (tables := rows + cols) > MAX_OUTPUT_CELLS:
            raise ParseError(f"index tables of {tables} entries are over the "
                             f"{MAX_OUTPUT_CELLS}-entry cap")
    elif args.op != "hadamard":     # every strip pair: the product of the two shapes
        _require_output_cells(rows, cols)
    a, b = map(parse_partitioned_csv, texts)
    if args.op == "kronecker":
        text = format_matrix_csv(kronecker(a.matrix, b.matrix))
    elif args.op == "hadamard":
        text = format_matrix_csv(hadamard(a.matrix, b.matrix))
    elif args.op == "tracy-singh":
        result = tracy_singh(a, b)
        text = format_matrix_csv(result.matrix, result.partition)
    else:
        text = format_matrix_csv(khatri_rao(a, b))
    _emit(text, args.output)
    return 0


def _cmd_check(args) -> int:
    s = _load_solution(args.solution)
    report = check_solution(s)
    for field in dataclasses.fields(CheckReport):
        result = getattr(report, field.name)
        line = f"{field.name}: {'true' if result.ok else 'false'}"
        if not result.ok:
            line += f" witness={result.witness}"
        print(line)
    return 0 if all(getattr(report, name).ok for name in AXIOMS) else 1


def _cmd_repmat(args) -> int:
    s = _load_solution(args.solution)
    if (failure := axiom_failure(s)) is not None:
        print(failure, file=sys.stderr)
        return 1
    rep = representing_matrix(s)
    matrix = rep.matrix
    if args.flip:
        matrix = compose_flip(matrix, s.n, "left")
    _emit(format_matrix_csv(matrix, rep.partition), args.output)
    return 0


def _load_factors(args):
    sx, sy = _load_solution(args.x), _load_solution(args.y)
    _require_output_cells((sx.n * sy.n) ** 2, (sx.n * sy.n) ** 2)     # the product's n*m points
    return sx, sy


def _cmd_direct_product(args) -> int:
    product = direct_product(*_load_factors(args))
    _emit(solution_to_json(product) + "\n", args.output)
    return 0


def _cmd_verify_theorem_a(args) -> int:
    sx, sy = _load_factors(args)
    try:
        result = verify_theorem_a(sx, sy, check=not args.skip_checks)
    except AxiomError as exc:
        # the gate runs on sx first, so `x.json x.json` names x
        path = (args.x if exc.solution is sx else args.y if exc.solution is sy
                else "direct product")
        print(f"{path}: {exc}")
        return 1
    print(result.verdict_line())
    return 0 if result.ok else 1


def _cmd_enumerate(args) -> int:
    try:
        cfg = EnumerationConfig(n=args.n, dedupe=args.dedupe, limit=args.limit,
                                max_n=args.max_n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    out_dir = None if args.out_dir is None else Path(args.out_dir)
    if out_dir is not None and (any(out_dir.glob("solution_*.json"))
                                or any(out_dir.glob("class_*.json"))):
        raise ParseError(f"{out_dir} already holds solution_*.json or class_*.json files")
    sizes: list[int] = []
    sols = enumerate_solutions(cfg, sizes)
    stem = "class" if cfg.dedupe else "solution"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        width = max(3, len(str(len(sols))))
        for k, sol in enumerate(sols, start=1):
            (out_dir / f"{stem}_{k:0{width}d}.json").write_text(solution_to_json(sol) + "\n")
    else:
        for sol in sols:
            print(solution_to_json(sol))
    summary = sys.stdout if out_dir is not None else sys.stderr
    print(f"{sum(sizes)} solutions", file=summary)
    if cfg.dedupe:
        print(f"{len(sizes)} classes", file=summary)
        for k, size in enumerate(sizes, start=1):
            print(f"class {k}: size {size}", file=summary)
    return 0


def _cmd_isomorphic(args) -> int:
    sa = _load_solution(args.a)
    sb = _load_solution(args.b)
    mu = isomorphic_set(sa, sb)
    if mu is None:
        print("not isomorphic")
        return 1
    print(f"isomorphic mu={list(mu.image)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybekit",
        description="Exact partitioned-matrix products and set-theoretic braided solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="multiply two matrix CSV files")
    p.add_argument("op", choices=["kronecker", "hadamard", "tracy-singh", "khatri-rao"])
    p.add_argument("a", help="left operand CSV")
    p.add_argument("b", help="right operand CSV")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("check", help="run the axiom checks on a solution JSON file")
    p.add_argument("solution")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("repmat", help="representing matrix of a solution, as CSV")
    p.add_argument("solution")
    p.add_argument("--flip", action="store_true",
                   help="left-compose with the factor swap (quantum-form matrix)")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_repmat)

    p = sub.add_parser("direct-product", help="direct product of two solution files")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_direct_product)

    p = sub.add_parser("verify-theorem-a",
                       help="compare the blockwise Kronecker product of two representing "
                            "matrices with the representing matrix of the direct product")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--skip-checks", action="store_true",
                   help="skip the axiom checks on the inputs")
    p.set_defaults(func=_cmd_verify_theorem_a)

    p = sub.add_parser("enumerate", help="list all solutions on a set of a given size")
    p.add_argument("n", type=int)
    p.add_argument("--dedupe", action="store_true",
                   help="collapse isomorphism classes and report their sizes")
    p.add_argument("--out-dir", default=None, help="write one JSON file per solution here")
    p.add_argument("--limit", type=int, default=None,
                   help="stop with exit 2 once the search visits more nodes than this")
    p.add_argument("--max-n", type=int, default=EnumerationConfig.max_n,
                   help="hard size cap (default %(default)s)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("isomorphic", help="search for a relabeling between two solutions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_isomorphic)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ParseError, EnumerationLimitError, OSError) as exc:
        # reads are turned into ParseError; an OSError here is a failed write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
