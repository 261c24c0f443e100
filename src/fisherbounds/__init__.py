"""Exact one-sided dependency p-values for 2x2 contingency tables,
with constant-time upper bounds and checkable error guarantees.

The exact tail probability of a positive dependency is a sum of J + 1
terms where J can reach n/4; the certified sum stops as soon as the
remaining terms provably cannot change the double result.  The bound
family here costs O(1), encloses the exact value from above, and
carries guarantees that make the approximation error checkable from
the table's counts alone.

Each module's __all__ is the one list of its public names; the package
exports their union.
"""

from . import batch, bench, bounds, chi2, contingency, errors, exact, ranking, reftables, sweep

__version__ = "0.1.0"

# built before the star imports, which rebind the name ranking to the function
__all__ = ["__version__"] + [
    name
    for module in (batch, bench, bounds, chi2, contingency, errors, exact, ranking, reftables, sweep)
    for name in module.__all__
]

from .batch import *  # noqa: E402, F403
from .bench import *  # noqa: E402, F403
from .bounds import *  # noqa: E402, F403
from .chi2 import *  # noqa: E402, F403
from .contingency import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .exact import *  # noqa: E402, F403
from .ranking import *  # noqa: E402, F403
from .reftables import *  # noqa: E402, F403
from .sweep import *  # noqa: E402, F403
