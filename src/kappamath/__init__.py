"""Kaniadakis deformed exponentials, algebra, and decay-equation solvers.

Each module's ``__all__`` is its one list of public names, and every name
in it imports from the package as well.  The package binds those names on
first use (PEP 562), so ``import kappamath`` alone imports no module, and
``kappamath.ode`` or ``from kappamath import ode`` imports only that module
and what it imports.
"""

import sys

__version__ = "0.1.0"

_MODULES = ("core", "errors", "harness", "ode", "series")


def __getattr__(name: str):
    # Called only for a name not bound here.  Inside the package, `from .
    # import series` looks its module up through here too, so a module's
    # name imports that module alone.  Any other name imports all five and
    # binds __all__, the modules and every name of their __all__ here, so
    # this runs once and each later lookup is a plain dict hit.
    if name in _MODULES:
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    bound = globals()
    if "__all__" not in bound:
        names = list(_MODULES)
        for module in map(__getattr__, _MODULES):
            names += module.__all__
            bound.update({n: getattr(module, n) for n in module.__all__})
        bound["__all__"] = names
        if name in bound:
            return bound[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(globals().get("__all__") or __getattr__("__all__"))
