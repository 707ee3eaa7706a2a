"""The library's runtime dependencies: the standard library, numpy and click;
and no module's import of a name it never uses.

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


def _unused_imports(path):
    """The names ``path`` imports and never reads, but for those on a line
    marked ``# noqa: F401``, which re-export them."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports to re-export
    modules = [path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 1
    assert [entry for path in modules for entry in _unused_imports(path)] == []
