"""Command line surface: outputs, exit codes, determinism."""

import json
import time
from fractions import Fraction

import pytest

from conftest import sample_a, sample_b, swap_solution, trivial_solution
from ybekit.blockmat import format_matrix_csv, parse_partitioned_csv, tracy_singh
from ybekit.cli import main
from ybekit.setsolutions import direct_product, solution_to_json

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
    code, _, err = run(capsys, ["repmat", path])
    assert code == 1
    assert "not involutive" in err
    assert "witness=(1, 1)" in err


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
    assert "solution is not involutive" in out
    assert "witness=(1, 1)" in out


def test_verify_theorem_a_skip_checks_still_structural(tmp_path, capsys):
    # with the gate bypassed the comparison still passes: both sides are
    # assembled from the same tables, valid or not
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json", NOT_INVOLUTIVE_JSON)
    code, out, _ = run(capsys, ["verify-theorem-a", x, y, "--skip-checks"])
    assert code == 0
    assert out == "THEOREM_A ok n=2 m=2 pairs=1\n"


def test_verify_theorem_a_skip_checks_non_bijective_exits_2(tmp_path, capsys):
    # constant tables: the pair map is not a bijection, so no permutation
    # matrix represents it
    x = put(tmp_path, "x.json", TRIVIAL_JSON)
    y = put(tmp_path, "y.json",
            '{"n": 2, "sigma": [[1, 1], [1, 1]], "gamma": [[1, 1], [1, 1]]}')
    code, out, err = run(capsys, ["verify-theorem-a", x, y, "--skip-checks"])
    assert (code, out) == (2, "")
    assert err == "error: no representing matrix: image is not a bijection of 1..n\n"


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


def test_enumerate_env_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YBEKIT_MAX_N", "2")
    code, _, err = run(capsys, ["enumerate", "3"])
    assert code == 2
    monkeypatch.setenv("YBEKIT_MAX_N", "3")
    code, out, _ = run(capsys, ["enumerate", "3"])
    assert code == 0
    assert len(out.splitlines()) == 12


def test_enumerate_env_cap_malformed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YBEKIT_MAX_N", "four")
    code, _, err = run(capsys, ["enumerate", "2"])
    assert code == 2
    assert "YBEKIT_MAX_N" in err


def test_env_cap_read_only_by_enumerate(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YBEKIT_MAX_N", "four")
    code, out, err = run(capsys, ["check", put(tmp_path, "s.json", TRIVIAL_JSON)])
    assert code == 0 and err == ""
    code, out, err = run(capsys, ["enumerate", "2"])
    assert code == 2 and out == ""
    assert err == "error: YBEKIT_MAX_N must be an integer, got 'four'\n"


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
    code, _, _ = run(capsys, ["enumerate", "2", "--limit", "3"])
    assert code == 2
    code, out, _ = run(capsys, ["enumerate", "2", "--limit", "4"])
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enumerate_invalid_n(tmp_path, capsys):
    code, _, err = run(capsys, ["enumerate", "0"])
    assert code == 2
    assert "error:" in err


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
    second = run(capsys, ["repmat", path, "--flip"])
    assert first == second
    stream1 = run(capsys, ["enumerate", "2", "--dedupe"])
    stream2 = run(capsys, ["enumerate", "2", "--dedupe"])
    assert stream1 == stream2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
