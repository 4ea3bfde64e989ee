"""Multi-graph regularized deep matrix factorization for association completion.

The package root re-exports the ``__all__`` of each library module, so each
module's list is the one statement of what is public.
"""

from . import data, evaluation, graphs, linalg, solver
from .data import *
from .evaluation import *
from .graphs import *
from .linalg import *
from .solver import *

__all__ = [*data.__all__, *evaluation.__all__, *graphs.__all__, *linalg.__all__, *solver.__all__]

__version__ = "0.1.0"
