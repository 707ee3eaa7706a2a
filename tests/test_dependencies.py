"""The library's runtime dependencies: the standard library, numpy and click.

Every module of ``src/hoq`` is parsed, not imported, so an import that sits
in a function body or behind a branch counts too.
"""
import ast
import pathlib
import sys

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hoq"
THIRD_PARTY = {"numpy", "click"}


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_stdlib_numpy_and_click_are_imported():
    modules = sorted(SOURCE.glob("*.py"))
    assert len(modules) > 1
    outside = [f"{path.name}: {name}" for path in modules for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | THIRD_PARTY]
    assert outside == []
