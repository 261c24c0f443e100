"""Exact one-sided dependency p-values for 2x2 contingency tables,
with constant-time upper bounds and checkable error guarantees.

The exact tail probability of a positive dependency is a sum of J + 1
terms where J can reach n/4; the certified sum stops as soon as the
remaining terms provably cannot change the double result.  The bound
family here costs O(1), encloses the exact value from above, and
carries guarantees that make the approximation error checkable from
the table's counts alone.

Each module's __all__ is the one list of its public names; the package
exports their union.  Importing the package loads none of its modules:
a name resolves on first use, from the module whose __all__ declares
it, and is then bound here, so later lookups are plain attribute reads.
Loading a module by any route binds all of its public names at once.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# searched in this order for a name not yet bound, so each module loads
# after the modules it imports
_MODULES = (
    "contingency", "errors", "exact", "chi2", "bounds", "batch",
    "bench", "ranking", "reftables", "sweep",
)


def __getattr__(name: str):
    if name == "__all__":
        names = ["__version__"] + [
            public
            for module in sorted(_MODULES)
            for public in _import_module(f"{__name__}.{module}").__all__
        ]
        globals()["__all__"] = names
        return names
    for module in _MODULES:
        loaded = _import_module(f"{__name__}.{module}")
        if name in loaded.__all__:
            return getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_sys.modules[__name__].__all__})


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _MODULES:
            # the import system binds each submodule here once it has run;
            # its public names follow, so ranking, which names both a
            # module and its function, stays the function
            for public in value.__all__:
                super().__setattr__(public, getattr(value, public))


_sys.modules[__name__].__class__ = _Package
