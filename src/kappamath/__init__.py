"""Kaniadakis deformed exponentials, algebra, and decay-equation solvers.

Each module's ``__all__`` is its one list of public names, and every name
in it imports from the package as well.
"""

from .core import *
from .errors import *
from .harness import *
from .ode import *
from .series import *

__version__ = "0.1.0"
