"""The README's library quick tour runs as written, and its exit-code table
names tests that exist."""

import ast
import itertools
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def test_readme_quick_tour_runs_and_its_shown_values_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    # a line `expression  # 'value'` shows what the expression evaluates to
    shown = [line.split("#", 1) for line in blocks[0].splitlines()
             if re.search(r"#\s*'", line)]
    assert [ast.literal_eval(value.strip()) for _, value in shown] == [
        "THEOREM_A ok n=2 m=2 pairs=1"]
    for expression, value in shown:
        assert eval(expression, namespace) == ast.literal_eval(value.strip())


def test_exit_code_table_names_existing_tests():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("| Command | Condition |"))
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]))
    assert len(rows) >= 20
    for row in rows:
        *_, code, _, pinned = row.strip("| ").split(" | ")
        assert code in ("1", "2", "3"), row
        named = re.findall(r"`(test_\w+\.py)::(test_\w+)`", pinned)
        assert named, row
        for file, name in named:
            tree = ast.parse((TESTS / file).read_text(encoding="utf-8"))
            assert name in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, (file, name)
