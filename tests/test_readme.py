"""README.md's Python examples run as written, and their result comments hold."""
import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _matches(value, expected) -> bool:
    """``value`` against a result comment; a list ending in ``...`` is a prefix."""
    if isinstance(expected, list) and expected and expected[-1] is Ellipsis:
        return value[:len(expected) - 1] == expected[:-1]
    return value == expected


def test_readme_python_blocks_run_and_match_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    checked = 0
    # the blocks share one namespace, as a reader running them in turn would
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
            if comment.startswith("#"):
                expected = eval(comment[1:], {"Fraction": Fraction})
                assert _matches(value, expected), f"{ast.unparse(stmt)} gave {value!r}"
                checked += 1
    assert checked >= 5
