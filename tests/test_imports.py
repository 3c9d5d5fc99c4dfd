"""Every name that a module of the package imports is used in it or listed in
its __all__, so that code moved out of a module leaves no import behind.
Only the standard library is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kappamath"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of source, at any depth, that no Name
    node reads and that __all__ does not list, in the order imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_checker_finds_an_import_left_behind():
    source = ("import functools\nimport math\nfrom .ode import SOLVERS, _grid as grid\n"
              "from .core import Kappa\n__all__ = ['Kappa']\n\n"
              "def f():\n    from .series import picard_iterate\n    return math.pi, SOLVERS\n")
    assert unused_imports(source) == ["functools", "grid", "picard_iterate"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
