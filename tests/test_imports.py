"""Every name that a module of the package imports is used in it or listed in
its __all__, so that code moved out of a module leaves no import behind;
OverflowError is caught only where an overflow first arises; and only the
kernels of exp's range and the grid forms that call them read its ends, so
that each float-range rule is written once.  Only the standard library is
used."""

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


def enclosing_qualnames(source: str, matches) -> list[str]:
    """The qualname of the function or class around each node of source for
    which matches(node) is true, in source order; '<module>' for a node at
    module level."""
    found = []

    def visit(node, qualname, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                local = "." if isinstance(child, ast.ClassDef) else ".<locals>."
                visit(child, name, name + local)
                continue
            if matches(child):
                found.append(qualname)
            visit(child, qualname, prefix)

    visit(ast.parse(source), "<module>", "")
    return found


def names_overflow_error(node) -> bool:
    """Whether node is an except clause that names OverflowError, alone or in
    a tuple."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:  # a bare except
        return False
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(t, ast.Name) and t.id == "OverflowError" for t in types)


def overflow_handlers(source: str) -> list[str]:
    """The qualname around each except clause of source that names
    OverflowError, in source order."""
    return enclosing_qualnames(source, names_overflow_error)


# Each is where its overflow first arises: math.isfinite of an int past the
# float range, and sinh past the float maximum.  Whether an exp overflows is
# decided by comparing its argument with core._EXP_MAX, before the call, not
# by a handler.
OVERFLOW_HANDLERS = ["core._isfinite", "core._scaled_sinh"]


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


EXP_RANGE_ENDS = {"_EXP_MIN", "_EXP_MAX"}


def reads_exp_range_end(node) -> bool:
    """Whether node reads core._EXP_MIN or core._EXP_MAX, by name or as an
    attribute."""
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load) and node.id in EXP_RANGE_ENDS
    return isinstance(node, ast.Attribute) and node.attr in EXP_RANGE_ENDS


def exp_range_readers(source: str) -> list[str]:
    """The qualname around each read of _EXP_MIN or _EXP_MAX in source, once
    each, in source order."""
    return list(dict.fromkeys(enclosing_qualnames(source, reads_exp_range_end)))


# The rule for a value outside exp's normal range lives in a kernel: core._exp
# for exp itself, ode._times_exp for the decay closed form f0 exp(u), and
# ode._logistic_parts for the logistic closed form and its residual.  The two
# grid forms read the ends only to take their plain in-range expression and
# call their kernel at any other point; a third reader would be a third copy.
EXP_RANGE_READERS = ["core._exp", "ode._times_exp", "ode._logistic_parts",
                     "ode.DecayProblem._exact_grid", "ode.LogisticProblem._exact_grid"]


def test_checker_finds_each_exp_range_reader():
    source = ("from .core import _EXP_MAX, _EXP_MIN\nfrom . import core\n_EXP_MIN = -708.0\n\n"
              "class A:\n    def f(self, u):\n        top = _EXP_MAX\n"
              "        return _EXP_MIN <= u <= top\n\n"
              "def g(u):\n    def h():\n        return core._EXP_MIN\n    return u\n\n"
              "def k(u, bottom=_EXP_MIN):\n    return u\n")
    assert exp_range_readers(source) == ["A.f", "g.<locals>.h", "k"]


def test_exp_range_ends_are_read_only_by_the_kernels_and_grid_forms():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in exp_range_readers(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(EXP_RANGE_READERS)
