"""The README's library quick tour runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
