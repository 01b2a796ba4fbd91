"""Command line surface: outputs, exit codes, determinism."""

import ast
import contextlib
import io
import json
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_a, sample_b, swap_solution, trivial_solution
from ybekit.blockmat import format_matrix_csv, parse_partitioned_csv, tracy_singh
from ybekit.cli import main
from ybekit.setsolutions import SetSolution, direct_product, solution_to_json

TRIVIAL_JSON = solution_to_json(trivial_solution(2))
SWAP_JSON = solution_to_json(swap_solution())
# nondegenerate but the pair map does not square to the identity
NOT_INVOLUTIVE_JSON = ('{"n": 2, "sigma": [[1, 2], [1, 2]], '
                       '"gamma": [[2, 1], [2, 1]]}')


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_product_kronecker_identity(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "1,0\n0,1\n")
    code, out, err = run(capsys, ["product", "kronecker", a, a])
    assert code == 0
    assert out == "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n"
    assert err == ""


def test_product_output_file_matches_stdout(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "1,2\n3,4\n")
    b = put(tmp_path, "b.csv", "0,1\n1,0\n")
    out_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, ["product", "kronecker", a, b])
    code2, out2, _ = run(capsys, ["product", "kronecker", a, b, "-o", str(out_path)])
    assert code == code2 == 0
    assert out2 == ""
    assert out_path.read_text() == out


def test_product_tracy_singh_partitioned(tmp_path, capsys):
    pa, pb = sample_a(), sample_b()
    a = put(tmp_path, "a.csv", format_matrix_csv(pa.matrix, pa.partition))
    b = put(tmp_path, "b.csv", format_matrix_csv(pb.matrix, pb.partition))
    code, out, _ = run(capsys, ["product", "tracy-singh", a, b])
    assert code == 0
    assert out.splitlines()[0] == "# partition rows=4,4,4,4 cols=4,4,4,4"
    back = parse_partitioned_csv(out)
    assert back == tracy_singh(pa, pb)
    assert back.block(2, 4).to_rows()[0] == [0, 0, Fraction(3, 2), 0]


def test_product_tracy_singh_golden_csv(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "# partition rows=1,1 cols=1,1\n1,1/2\n0,-2\n")
    b = put(tmp_path, "b.csv", "# partition rows=2 cols=1,1\n0,3\n-1/3,0\n")
    code, out, err = run(capsys, ["product", "tracy-singh", a, b])
    assert (code, err) == (0, "")
    assert out == ("# partition rows=2,2 cols=1,1,1,1\n"
                   "0,3,0,3/2\n"
                   "-1/3,0,-1/6,0\n"
                   "0,0,0,-6\n"
                   "0,0,2/3,0\n")


def test_product_over_output_cap_exits_2(tmp_path, capsys):
    col = put(tmp_path, "col.csv", "1\n" * 4000)
    row = put(tmp_path, "row.csv", ",".join(["1"] * 4000) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["product", "kronecker", col, row])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: output of 4000x4000 is over the 10000000-entry cap\n"


def test_product_cap_runs_before_any_cell_is_parsed(tmp_path, capsys):
    # two 4.5 MB files: parsing their 2.25 million cells would take seconds
    zeros = put(tmp_path, "zeros.csv", (",".join(["0"] * 1500) + "\n") * 1500)
    start = time.perf_counter()
    code, out, err = run(capsys, ["product", "kronecker", zeros, zeros])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: output of 2250000x2250000 is over the 10000000-entry cap\n"


@pytest.mark.parametrize("op", ["kronecker", "tracy-singh"])
def test_product_cap_is_sized_from_the_shapes(tmp_path, capsys, op):
    # 8000 one-row strips each: pairing every strip would cost 64 million steps
    col = put(tmp_path, "col.csv", "# partition rows=%s cols=1\n" % ",".join(["1"] * 8000)
              + "1\n" * 8000)
    start = time.perf_counter()
    code, out, err = run(capsys, ["product", op, col, col])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: output of 64000000x1 is over the 10000000-entry cap\n"


def test_product_khatri_rao_index_tables_are_capped(tmp_path, capsys):
    # 4000 one-row (or one-column) strips: the output is small, but the strip
    # map would tabulate all 4000 x 4000 index pairs along that axis
    ones = ",".join(["1"] * 4000)
    files = [put(tmp_path, "rows.csv", f"# partition rows={ones} cols=1\n" + "1\n" * 4000),
             put(tmp_path, "cols.csv", f"# partition rows=1 cols={ones}\n{ones}\n")]
    for path in files:
        start = time.perf_counter()
        code, out, err = run(capsys, ["product", "khatri-rao", path, path])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == "error: index tables of 16000001 entries are over the 10000000-entry cap\n"


def test_product_hadamard_mismatch_exits_3(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "1,0\n0,1\n")
    b = put(tmp_path, "b.csv", "1\n")
    code, _, err = run(capsys, ["product", "hadamard", a, b])
    assert code == 3
    assert "error:" in err


def test_product_khatri_rao_grid_mismatch_exits_3(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "# partition rows=1,1 cols=1,1\n1,0\n0,1\n")
    b = put(tmp_path, "b.csv", "1,0\n0,1\n")
    code, _, err = run(capsys, ["product", "khatri-rao", a, b])
    assert code == 3
    assert "error:" in err


def test_product_partition_mismatch_exits_3(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "# partition rows=1,2 cols=1\n1\n2\n")
    code, out, err = run(capsys, ["product", "kronecker", a, a])
    assert (code, out) == (3, "")
    assert err == "error: row partition does not sum to the matrix height\n"


def test_product_missing_file_exits_2(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "1\n")
    code, _, err = run(capsys, ["product", "kronecker", a, str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error:" in err


def test_product_malformed_csv_exits_2(tmp_path, capsys):
    a = put(tmp_path, "a.csv", "1,zap\n")
    code, _, _ = run(capsys, ["product", "kronecker", a, a])
    assert code == 2


def test_product_entry_outside_grammar_exits_2(tmp_path, capsys):
    # accepted by Fraction, but its product could not be written back out
    a = put(tmp_path, "a.csv", "1e300000,1\n")
    code, out, err = run(capsys, ["product", "kronecker", a, a])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad matrix entry") and err.count("\n") == 1


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"n": 1, "sigma": [[1]], "gamma": [[1]]}\xff')
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_check_trivial(tmp_path, capsys):
    path = put(tmp_path, "s.json", TRIVIAL_JSON)
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert out.splitlines() == [
        "nondegenerate: true",
        "involutive: true",
        "braided: true",
        "square_free: true",
        "trivial: true",
    ]


def test_check_swap_solution(tmp_path, capsys):
    path = put(tmp_path, "s.json", SWAP_JSON)
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert out.splitlines() == [
        "nondegenerate: true",
        "involutive: true",
        "braided: true",
        "square_free: false witness=(1,)",
        "trivial: false witness=('sigma', 1)",
    ]


def test_check_degenerate_exits_1(tmp_path, capsys):
    path = put(tmp_path, "s.json",
               '{"n": 2, "sigma": [[1, 1], [1, 2]], "gamma": [[1, 2], [1, 2]]}')
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    assert out.splitlines()[0] == "nondegenerate: false witness=('sigma', 1)"


def test_check_bad_json_exits_2(tmp_path, capsys):
    path = put(tmp_path, "s.json", "{broken")
    code, _, err = run(capsys, ["check", path])
    assert code == 2
    assert "error:" in err
    deep = put(tmp_path, "deep.json", "[" * 1101)
    code, out, err = run(capsys, ["check", deep])
    assert (code, out, err) == (2, "", "error: bad JSON: nested too deeply\n")


def test_repmat_trivial(tmp_path, capsys):
    path = put(tmp_path, "s.json", TRIVIAL_JSON)
    code, out, _ = run(capsys, ["repmat", path])
    assert code == 0
    assert out == ("# partition rows=2,2 cols=2,2\n"
                   "1,0,0,0\n0,0,1,0\n0,1,0,0\n0,0,0,1\n")


def test_repmat_flip(tmp_path, capsys):
    path = put(tmp_path, "s.json", TRIVIAL_JSON)
    code, out, _ = run(capsys, ["repmat", path, "--flip"])
    assert code == 0
    assert out == ("# partition rows=2,2 cols=2,2\n"
                   "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")


def test_repmat_rejects_non_solution(tmp_path, capsys):
    path = put(tmp_path, "s.json", NOT_INVOLUTIVE_JSON)
    code, out, err = run(capsys, ["repmat", path])
    assert code == 1
    assert out == ""
    assert err == "solution is not involutive: witness=(1, 1)\n"


def test_repmat_output_in_missing_dir_exits_2(tmp_path, capsys):
    path = put(tmp_path, "s.json", TRIVIAL_JSON)
    code, out, err = run(capsys, ["repmat", path, "-o", str(tmp_path / "nope" / "x.csv")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_repmat_over_output_cap_exits_2(tmp_path, capsys):
    n = 57                  # order n^2 = 3249, so n^4 cells are over 10^7
    ident = list(range(1, n + 1))
    path = put(tmp_path, "big.json", json.dumps({"n": n, "sigma": [ident] * n,
                                                 "gamma": [ident] * n}))
    start = time.perf_counter()
    code, out, err = run(capsys, ["repmat", path])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: output of 3249x3249 is over the 10000000-entry cap\n"


def test_direct_product_output(tmp_path, capsys):
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json", SWAP_JSON)
    code, out, _ = run(capsys, ["direct-product", x, y])
    assert code == 0
    expected = direct_product(trivial_solution(2), swap_solution())
    assert out == solution_to_json(expected) + "\n"
    assert json.loads(out)["n"] == 4


def test_solution_entry_over_digit_cap_exits_2(tmp_path, capsys):
    # CPython refuses to read an integer of more than 4300 digits
    big = put(tmp_path, "big.json", '{"n": 2, "sigma": [[1, %s], [1, 2]], '
              '"gamma": [[1, 2], [1, 2]]}' % ("9" * 5000))
    ok = put(tmp_path, "ok.json", TRIVIAL_JSON)
    for argv in (["check", big], ["verify-theorem-a", ok, big]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad JSON: ") and err.count("\n") == 1


def test_size_bound_refuses_before_any_check(tmp_path, capsys):
    # every solution file is held to repmat's n^4 <= 10^7 bound (n <= 56) as
    # it is read; verify-theorem-a holds the product's n*m points to it too
    def trivial(n):
        return put(tmp_path, f"t{n}.json", solution_to_json(trivial_solution(n)))

    cases = [(["check", trivial(57)], 3249),
             (["verify-theorem-a", trivial(8), trivial(8)], 4096),
             (["direct-product", trivial(57), trivial(57)], 3249),
             (["direct-product", trivial(57), trivial(1)], 3249),
             (["isomorphic", trivial(57), trivial(57)], 3249)]
    for argv, order in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: output of {order}x{order} is over the 10000000-entry cap\n"
    code, out, err = run(capsys, ["verify-theorem-a", trivial(7), trivial(8)])
    assert (code, out, err) == (0, "THEOREM_A ok n=7 m=8 pairs=1\n", "")


def test_direct_product_refuses_a_product_over_56_points(tmp_path, capsys):
    # the product is a solution file like any other, so it obeys the same bound
    def trivial(n):
        return put(tmp_path, f"t{n}.json", solution_to_json(trivial_solution(n)))

    out_path = tmp_path / "product.json"
    start = time.perf_counter()
    code, out, err = run(capsys, ["direct-product", trivial(8), trivial(8), "-o", str(out_path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: output of 4096x4096 is over the 10000000-entry cap\n"
    assert not out_path.exists()
    code, out, err = run(capsys, ["direct-product", trivial(7), trivial(8), "-o", str(out_path)])
    assert (code, out, err) == (0, "", "")
    assert json.loads(out_path.read_text())["n"] == 56


def test_verify_theorem_a_ok(tmp_path, capsys):
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json", SWAP_JSON)
    code, out, _ = run(capsys, ["verify-theorem-a", x, y])
    assert code == 0
    assert out == "THEOREM_A ok n=2 m=2 pairs=1\n"


def test_verify_theorem_a_gates_corrupted_file(tmp_path, capsys):
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json", NOT_INVOLUTIVE_JSON)
    code, out, _ = run(capsys, ["verify-theorem-a", x, y])
    assert code == 1
    assert out == f"{y}: solution is not involutive: witness=(1, 1)\n"


def test_verify_theorem_a_gates_the_direct_product(tmp_path, capsys, monkeypatch):
    # fault injection: both files pass, but the product handed to the gate
    # is the non-involutive sigma_x = (2 3 1), gamma_y = id
    import ybekit.repmat

    cyc = SetSolution(3, ((2, 3, 1),) * 3, ((1, 2, 3),) * 3)
    monkeypatch.setattr(ybekit.repmat, "direct_product", lambda sx, sy: cyc)
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json", SWAP_JSON)
    code, out, err = run(capsys, ["verify-theorem-a", x, y])
    assert code == 1
    assert out == "direct product: solution is not involutive: witness=(1, 1)\n"
    assert err == ""


def test_verify_theorem_a_skip_checks_still_structural(tmp_path, capsys):
    # with the gate bypassed the comparison still passes: both sides are
    # assembled from the same tables, valid or not
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json", NOT_INVOLUTIVE_JSON)
    code, out, _ = run(capsys, ["verify-theorem-a", x, y, "--skip-checks"])
    assert code == 0
    assert out == "THEOREM_A ok n=2 m=2 pairs=1\n"


def test_verify_theorem_a_skip_checks_non_bijective_verdict(tmp_path, capsys):
    # constant tables: the pair map is not a bijection, yet its 0/1 matrix
    # still satisfies the positional identity
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json",
            '{"n": 2, "sigma": [[1, 1], [1, 1]], "gamma": [[1, 1], [1, 1]]}')
    code, out, err = run(capsys, ["verify-theorem-a", x, y, "--skip-checks"])
    assert (code, out, err) == (0, "THEOREM_A ok n=2 m=2 pairs=1\n", "")


def test_enumerate_stream(tmp_path, capsys):
    code, out, err = run(capsys, ["enumerate", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0] == TRIVIAL_JSON
    assert lines[1] == SWAP_JSON
    assert err == "2 solutions\n"


def test_enumerate_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "sols"
    code, out, err = run(capsys, ["enumerate", "2", "--out-dir", str(out_dir)])
    assert code == 0
    assert out == "2 solutions\n"
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["solution_001.json", "solution_002.json"]
    assert (out_dir / "solution_001.json").read_text() == TRIVIAL_JSON + "\n"


def test_enumerate_out_dir_is_a_file_exits_2(tmp_path, capsys):
    path = put(tmp_path, "taken", "")
    code, out, err = run(capsys, ["enumerate", "2", "--out-dir", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_enumerate_dedupe_summary(tmp_path, capsys):
    out_dir = tmp_path / "classes"
    code, out, _ = run(capsys, ["enumerate", "3", "--dedupe",
                                "--out-dir", str(out_dir)])
    assert code == 0
    assert out.splitlines() == [
        "12 solutions",
        "5 classes",
        "class 1: size 1",
        "class 2: size 3",
        "class 3: size 3",
        "class 4: size 3",
        "class 5: size 2",
    ]
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [f"class_{k:03d}.json" for k in range(1, 6)]


def test_enumerate_size_cap(tmp_path, capsys):
    code, _, err = run(capsys, ["enumerate", "3", "--max-n", "2"])
    assert code == 2
    assert "error:" in err
    # the cap is refused before any search starts
    start = time.perf_counter()
    code, out, err = run(capsys, ["enumerate", "10", "--max-n", "10", "--limit", "1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: size cap must be at most 9: the 10!*10 permutation table "
                   "entries are over 10^7\n")
    # no n! table is built before --limit counts the root and its first child
    for dedupe in ([], ["--dedupe"]):
        start = time.perf_counter()
        code, out, err = run(capsys, ["enumerate", "9", "--max-n", "9", "--limit", "1"] + dedupe)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", "error: search exceeds its budget of 1 nodes\n")


def test_enumerate_size_cap_reads_no_environment(tmp_path, capsys, monkeypatch):
    # --max-n is the one cap setting; the environment plays no part
    monkeypatch.setenv("YBEKIT_MAX_N", "2")
    code, out, err = run(capsys, ["enumerate", "3"])
    assert (code, len(out.splitlines()), err) == (0, 12, "12 solutions\n")


def test_enumerate_refuses_out_dir_holding_output(tmp_path, capsys):
    out_dir = tmp_path / "sols"
    assert run(capsys, ["enumerate", "3", "--out-dir", str(out_dir)])[0] == 0
    before = {p.name: p.read_text() for p in out_dir.iterdir()}
    assert len(before) == 12
    for argv in (["enumerate", "2"], ["enumerate", "2", "--dedupe"]):
        code, out, err = run(capsys, argv + ["--out-dir", str(out_dir)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert {p.name: p.read_text() for p in out_dir.iterdir()} == before
    classes = tmp_path / "classes"
    assert run(capsys, ["enumerate", "2", "--dedupe", "--out-dir", str(classes)])[0] == 0
    assert run(capsys, ["enumerate", "2", "--out-dir", str(classes)])[0] == 2


def test_enumerate_candidate_limit(tmp_path, capsys):
    # --limit budgets the search nodes: 5 at n = 2 and 1 599 at n = 4, and
    # 361 at n = 4 under --dedupe, whose lex-leader cuts leave 23 classes
    n4_classes = "".join(f"class {k}: size {size}\n" for k, size in enumerate(
        [1, 12, 8, 6, 12, 6, 6, 12, 8, 6, 3, 6, 12, 8, 8, 3, 12, 6, 12, 3, 6, 6, 6], start=1))
    for n, nodes, count, dedupe in [("2", 5, 2, []), ("4", 1599, 168, []),
                                    ("4", 361, 23, ["--dedupe"])]:
        code, out, err = run(capsys, ["enumerate", n, "--limit", str(nodes - 1)] + dedupe)
        assert code == 2 and out == ""
        assert err == f"error: search exceeds its budget of {nodes - 1} nodes\n"
        code, out, err = run(capsys, ["enumerate", n, "--limit", str(nodes)] + dedupe)
        assert code == 0 and len(out.splitlines()) == count
        assert err == (f"168 solutions\n23 classes\n{n4_classes}" if dedupe
                       else f"{count} solutions\n")


def test_enumerate_invalid_n(tmp_path, capsys):
    code, _, err = run(capsys, ["enumerate", "0"])
    assert code == 2
    assert "error:" in err
    for option, message in [("--limit", "limit must be positive when given"),
                            ("--max-n", "size cap must be positive")]:
        code, out, err = run(capsys, ["enumerate", "2", option, "0"])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_isomorphic_not(tmp_path, capsys):
    a = put(tmp_path, "a.json", TRIVIAL_JSON)
    b = put(tmp_path, "b.json", SWAP_JSON)
    code, out, _ = run(capsys, ["isomorphic", a, b])
    assert code == 1
    assert out == "not isomorphic\n"


def test_isomorphic_found(tmp_path, capsys):
    a = put(tmp_path, "a.json",
            '{"n": 3, "sigma": [[1, 2, 3], [1, 2, 3], [2, 1, 3]], '
            '"gamma": [[1, 2, 3], [1, 2, 3], [2, 1, 3]]}')
    b = put(tmp_path, "b.json",
            '{"n": 3, "sigma": [[1, 2, 3], [3, 2, 1], [1, 2, 3]], '
            '"gamma": [[1, 2, 3], [3, 2, 1], [1, 2, 3]]}')
    code, out, _ = run(capsys, ["isomorphic", a, b])
    assert code == 0
    assert out == "isomorphic mu=[1, 3, 2]\n"


def test_isomorphic_size_mismatch_exits_3(tmp_path, capsys):
    a = put(tmp_path, "a.json", TRIVIAL_JSON)
    b = put(tmp_path, "b.json", solution_to_json(trivial_solution(3)))
    code, _, err = run(capsys, ["isomorphic", a, b])
    assert code == 3
    assert "different sizes" in err


def test_cli_byte_determinism(tmp_path, capsys):
    path = put(tmp_path, "s.json", SWAP_JSON)
    first = run(capsys, ["repmat", path, "--flip"])
    plain = run(capsys, ["repmat", path])
    second = run(capsys, ["repmat", path, "--flip"])
    assert first == second
    # the parser is built once per process; no option carries over between calls
    assert plain[0] == 0 and plain != first
    stream1 = run(capsys, ["enumerate", "2", "--dedupe"])
    stream2 = run(capsys, ["enumerate", "2", "--dedupe"])
    assert stream1 == stream2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_package_imports_only_the_standard_library():
    # the package declares no runtime dependencies: every absolute import in
    # src/ybekit names a standard-library module or the package itself
    import ybekit

    allowed = set(sys.stdlib_module_names) | {"ybekit"}
    sources = sorted(Path(ybekit.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_refusal_text_is_written_once():
    # every refusal of a non-solution is an AxiomError, whose constructor is
    # the one place in src/ybekit that writes its message
    import ybekit

    sources = sorted(Path(ybekit.__file__).parent.glob("*.py"))
    assert sources
    counts = {path.name: path.read_text(encoding="utf-8").count("solution is not")
              for path in sources}
    assert sum(counts.values()) == 1, counts
    assert counts["errors.py"] == 1


# --- malformed inputs: every call ends in one of the documented exits -------

_CSV_TOKENS = st.text(alphabet="0123456789-/,.e+_x \t", max_size=4)
_CSV_HEADERS = st.one_of(
    st.just(""),
    st.builds("# partition rows={} cols={}\n".format,
              st.text(alphabet="0123456789,", max_size=5),
              st.text(alphabet="0123456789,", max_size=5)),
    st.text(alphabet="# partionrwscl=0123456789,", max_size=12).map(lambda t: "#" + t + "\n"))
_CSV_DOCUMENTS = st.builds(
    lambda header, rows: header + "".join(",".join(r) + "\n" for r in rows),
    _CSV_HEADERS, st.lists(st.lists(_CSV_TOKENS, min_size=1, max_size=3), max_size=3))

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats(-2, 2) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=8)
_TABLES = st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3)
_SOLUTION_DOCUMENTS = st.one_of(
    st.text(max_size=8),
    _JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({"n": st.integers(1, 3) | _JSON_VALUES,
                           "sigma": _TABLES | _JSON_VALUES,
                           "gamma": _TABLES | _JSON_VALUES}).map(json.dumps))

_SOLUTION_COMMANDS = [["check", "x"], ["repmat", "x"], ["repmat", "--flip", "x"],
                      ["direct-product", "x", "y"], ["verify-theorem-a", "x", "y"],
                      ["verify-theorem-a", "--skip-checks", "x", "y"], ["isomorphic", "x", "y"]]


def _run_on_files(commands, texts):
    """main() on each command, whose x and y name files holding `texts`:
    asserts a documented exit, one `error:` line on exits 2 and 3, and
    under a second per call."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) for name in "xy"}
        for name, text in zip("xy", texts):
            Path(paths[name]).write_text(text, encoding="utf-8")
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([paths.get(arg, arg) for arg in command])
            assert time.perf_counter() - start < 1.0, (command, texts)
            assert code in (0, 1, 2, 3), (command, texts)
            if code in (2, 3):
                assert err.getvalue().startswith("error: "), (command, texts)
                assert err.getvalue().count("\n") == 1, (command, texts, err.getvalue())


@given(_CSV_DOCUMENTS, _CSV_DOCUMENTS)
@settings(deadline=None, max_examples=50)
def test_product_on_malformed_csv_exits_cleanly(a, b):
    _run_on_files([["product", op, "x", "y"] for op in
                   ["kronecker", "hadamard", "tracy-singh", "khatri-rao"]], (a, b))


@given(_SOLUTION_DOCUMENTS, _SOLUTION_DOCUMENTS)
@settings(deadline=None, max_examples=50)
def test_solution_commands_on_malformed_json_exit_cleanly(x, y):
    _run_on_files(_SOLUTION_COMMANDS, (x, y))
