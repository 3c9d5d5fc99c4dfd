"""Every name that a module of the package imports is used in it or listed in
its __all__, so that code moved out of a module leaves no import behind; and
OverflowError is caught only where an overflow first arises, so that each
float-range rule is written once.  Only the standard library is used."""

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


def overflow_handlers(source: str) -> list[str]:
    """The qualname of the function or class around each except clause of
    source that names OverflowError, alone or in a tuple, in source order;
    '<module>' for a clause at module level."""
    found = []

    def visit(node, qualname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                local = "." if isinstance(child, ast.ClassDef) else ".<locals>."
                visit(child, name, name + local)
                continue
            if isinstance(child, ast.ExceptHandler):  # a bare except has type None
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in types):
                    found.append(qualname)
            visit(child, qualname, prefix)

    visit(ast.parse(source), "<module>", "")
    return found


# Each is where its overflow first arises: math.isfinite of an int past the
# float range, sinh past the float maximum, and float() of a series
# coefficient past the float range.  Whether an exp overflows is decided by
# comparing its argument with core._EXP_MAX, before the call, not by a handler.
OVERFLOW_HANDLERS = [
    "core._isfinite", "core._scaled_sinh", "series.PowerSeries.__init__",
]


def test_checker_finds_each_overflow_handler():
    source = ("try:\n    import x\nexcept OverflowError:\n    pass\n\n"
              "class A:\n    def f(self):\n        try:\n            pass\n"
              "        except (ValueError, OverflowError) as e:\n            pass\n"
              "        except ValueError:\n            pass\n\n"
              "def g():\n    def h():\n        try:\n            pass\n"
              "        except OverflowError:\n            pass\n"
              "    try:\n        pass\n    except:\n        pass\n")
    assert overflow_handlers(source) == ["<module>", "A.f", "g.<locals>.h"]


def test_overflow_is_caught_only_where_it_first_arises():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in overflow_handlers(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(OVERFLOW_HANDLERS)
