"""README.md's Python examples and its command-line block run as written,
and their result comments hold."""
import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from hoq.cli import main

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


def test_readme_command_line_block_runs_and_matches_its_comments(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    ran = 0
    # the commands run in order in one directory, so a later line reads the
    # files an earlier one wrote
    for line in block.replace("\\\n", "").splitlines():
        command, _, comment = line.partition("#")
        args = shlex.split(command)[1:]
        # a line with a "..." placeholder stands for a family of commands
        if not args or "..." in args:
            continue
        res = runner.invoke(main, args)
        comment = comment.strip()
        exits = re.match(r"exits (\d+)", comment)
        assert res.exit_code == (int(exits.group(1)) if exits else 0), (line, res.output)
        if comment and not exits:
            # "a / b" is two printed lines
            expected = comment.split(" / ")
            assert res.output.splitlines()[:len(expected)] == expected, (line, res.output)
        ran += 1
    assert ran == 7
