"""The package's public surface: each module's __all__ is the one list of
its public names, and importing the package stays light."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import fisherbounds

# cli has its own entry-point names, and __main__ runs the command line
NOT_EXPORTED = {"cli", "__main__"}


def _exporting_modules():
    return [
        importlib.import_module(f"fisherbounds.{info.name}")
        for info in pkgutil.iter_modules(fisherbounds.__path__)
        if info.name not in NOT_EXPORTED
    ]


def test_no_name_is_exported_twice():
    assert len(fisherbounds.__all__) == len(set(fisherbounds.__all__))


def test_package_exports_the_union_of_the_module_lists():
    names = {name for module in _exporting_modules() for name in module.__all__}
    assert len(_exporting_modules()) == 10
    assert set(fisherbounds.__all__) == names | {"__version__"}


def test_every_exported_name_resolves():
    for module in _exporting_modules():
        for name in module.__all__:
            assert getattr(fisherbounds, name) is getattr(module, name), name
    assert isinstance(fisherbounds.__version__, str)


def test_import_loads_no_thread_pool_or_logging():
    probe = (
        "import sys, fisherbounds;"
        " print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(fisherbounds.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"
