"""Command line front end.  Every subcommand is a thin wrapper over the
library: parse inputs, call one function, print its result.

Exit codes: 0 success (or checked-true), 1 a performed check came out
false, 2 unreadable or malformed input (or a bad request), 3 dimension or
partition mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .blockmat import (MAX_OUTPUT_CELLS, format_matrix_csv, hadamard,
                       khatri_rao, kronecker, parse_partitioned_csv,
                       tracy_singh)
from .enumeration import (EnumerationConfig, EnumerationLimitError,
                          enumerate_solutions, iso_classes)
from .errors import AxiomError, ParseError, ShapeError
from .repmat import compose_flip, representing_matrix, verify_theorem_a
from .setsolutions import (AXIOMS, CheckReport, axiom_failure, check_solution, direct_product,
                           isomorphic_set, solution_from_json, solution_to_json)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_solution(path: str):
    return solution_from_json(_read_text(path))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _require_output_cells(rows: int, cols: int) -> None:
    if rows * cols > MAX_OUTPUT_CELLS:
        raise ParseError(f"output of {rows}x{cols} is over the {MAX_OUTPUT_CELLS}-entry cap")


def _cmd_product(args) -> int:
    a = parse_partitioned_csv(_read_text(args.a))
    b = parse_partitioned_csv(_read_text(args.b))
    if args.op == "khatri-rao":     # the diagonal strip pairs only
        _require_output_cells(*(sum(p * q for p, q in zip(sa, sb)) for sa, sb in (
            (a.partition.row_sizes, b.partition.row_sizes),
            (a.partition.col_sizes, b.partition.col_sizes))))
    elif args.op != "hadamard":     # every strip pair: the product of the two shapes
        _require_output_cells(a.matrix.rows * b.matrix.rows, a.matrix.cols * b.matrix.cols)
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
    _require_output_cells(s.n ** 2, s.n ** 2)      # the bound repmat applies
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
    _require_output_cells(s.n ** 2, s.n ** 2)
    if (failure := axiom_failure(s)) is not None:
        print(failure, file=sys.stderr)
        return 1
    rep = representing_matrix(s)
    matrix = rep.matrix
    if args.flip:
        matrix = compose_flip(matrix, s.n, "left")
    _emit(format_matrix_csv(matrix, rep.partition), args.output)
    return 0


def _cmd_direct_product(args) -> int:
    sx = _load_solution(args.x)
    sy = _load_solution(args.y)
    _require_output_cells(sx.n * sy.n, sx.n * sy.n)     # the product's sigma table
    product = direct_product(sx, sy)
    _emit(solution_to_json(product) + "\n", args.output)
    return 0


def _cmd_verify_theorem_a(args) -> int:
    sx = _load_solution(args.x)
    sy = _load_solution(args.y)
    _require_output_cells((sx.n * sy.n) ** 2, (sx.n * sy.n) ** 2)     # the product's repmat bound
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
        cfg = EnumerationConfig(n=args.n, limit=args.limit, max_n=args.max_n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    out_dir = None if args.out_dir is None else Path(args.out_dir)
    if out_dir is not None and (any(out_dir.glob("solution_*.json"))
                                or any(out_dir.glob("class_*.json"))):
        raise ParseError(f"{out_dir} already holds solution_*.json or class_*.json files")
    sols = enumerate_solutions(cfg)
    classes = iso_classes(sols) if args.dedupe else None
    emitted = [cls[0] for cls in classes] if classes is not None else sols
    stem = "class" if classes is not None else "solution"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        width = max(3, len(str(len(emitted))))
        for k, sol in enumerate(emitted, start=1):
            (out_dir / f"{stem}_{k:0{width}d}.json").write_text(solution_to_json(sol) + "\n")
    else:
        for sol in emitted:
            print(solution_to_json(sol))
    summary = sys.stdout if out_dir is not None else sys.stderr
    print(f"{len(sols)} solutions", file=summary)
    if classes is not None:
        print(f"{len(classes)} classes", file=summary)
        for k, cls in enumerate(classes, start=1):
            print(f"class {k}: size {len(cls)}", file=summary)
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
