"""The package's public surface: each module's __all__ is the one list of
its public names, and importing the package stays light."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import typing

import pytest

import fisherbounds
from fisherbounds import read_table_csv, run_batch, write_batch_csv

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


def test_every_exported_callable_and_public_method_resolves_its_hints():
    # an annotation naming what its module imports only inside a function
    # makes typing.get_type_hints raise NameError
    for module in _exporting_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj):
                continue
            typing.get_type_hints(obj)
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    member = member.fget if isinstance(member, property) else member
                    if not attr.startswith("_") and callable(member):
                        typing.get_type_hints(member)


def test_import_loads_no_thread_pool_or_logging():
    probe = (
        "import sys, fisherbounds;"
        " print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(fisherbounds.__file__))
    done = subprocess.run(
        # -S: without the site module's machine-dependent imports, as in _modules_after
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"


# what only the commands that need them load: the timing harness, the
# rank analysis, the reference grid, sweeps, and the standard modules
# the oracle, the rank correlation and the harness bring in
HEAVY = {
    "fisherbounds.bench", "fisherbounds.ranking", "fisherbounds.reftables",
    "fisherbounds.sweep", "fractions", "statistics", "timeit",
}


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds once code has run, with the
    words of any DeprecationWarning it printed.  -S skips the site module,
    whose start-up imports vary by machine, so only the package's own are
    seen."""
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)"
    src = os.path.dirname(os.path.dirname(fisherbounds.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-W", "always::DeprecationWarning", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(done.stderr.split())


def _modules_after_command(*argv: str, setup: str = "") -> set[str]:
    """The modules `python -m fisherbounds ARGV...` holds once it has run,
    after the lines of setup."""
    return _modules_after(
        f"{setup}import runpy, sys\nsys.argv[1:] = {list(argv)!r}\ntry:\n"
        "    runpy.run_module('fisherbounds', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )


def test_import_loads_no_submodule():
    loaded = _modules_after("import fisherbounds")
    assert "fisherbounds" in loaded
    assert sorted(m for m in loaded if m.startswith("fisherbounds.")) == []


def test_term_engine_loads_only_what_it_uses():
    loaded = _modules_after(
        "import fisherbounds\n"
        "fisherbounds.make_term_engine(fisherbounds.build_table(1000, 200, 250, 60))"
    )
    assert "fisherbounds.exact" in loaded
    assert sorted((HEAVY | {"fisherbounds.batch"}) & loaded) == []


def test_eval_command_loads_only_what_it_uses():
    loaded = _modules_after_command("eval", "1000", "200", "250", "60")
    assert "fisherbounds.cli" in loaded
    assert sorted(HEAVY & loaded) == []


def test_batch_command_loads_only_what_it_uses(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "id,n,mx,ma,mxa\na,1000,200,250,60\nb,5000,2500,2500,1600\n", encoding="utf-8"
    )
    loaded = _modules_after_command("batch", str(path), "--out", str(tmp_path / "o.csv"))
    assert "fisherbounds.batch" in loaded
    assert sorted(HEAVY & loaded) == []
    # an input of one chunk is evaluated in-process, without the pool's imports
    assert sorted({"concurrent.futures", "multiprocessing"} & loaded) == []


# dataclasses imports inspect, and with it ast, dis and tokenize: most of
# the package's import time, which no per-row record needs
RECORD_MACHINERY = {"dataclasses", "inspect"}


def test_term_engine_loads_no_record_machinery():
    loaded = _modules_after(
        "import fisherbounds\n"
        "fisherbounds.make_term_engine(fisherbounds.build_table(1000, 200, 250, 60))"
    )
    assert "fisherbounds.exact" in loaded
    assert sorted(RECORD_MACHINERY & loaded) == []


def test_eval_command_loads_no_record_machinery():
    loaded = _modules_after_command("eval", "1000", "200", "250", "60")
    assert "fisherbounds.bounds" in loaded
    assert sorted(RECORD_MACHINERY & loaded) == []


@pytest.mark.parametrize(
    "module, argv",
    [
        ("reftables", ("reproduce-tables",)),
        ("ranking", ("rank-agreement", "o.csv")),
        ("bench", ("bench", "--sizes", "2000", "--reps", "1")),
    ],
    ids=["reproduce-tables", "rank-agreement", "bench"],
)
def test_side_commands_load_no_record_machinery(tmp_path, monkeypatch, module, argv):
    # rank-agreement reads a two-row batch output, written here in-process
    (tmp_path / "t.csv").write_text(
        "id,n,mx,ma,mxa\na,1000,200,250,60\nb,5000,2500,2500,1600\n", encoding="utf-8"
    )
    with open(tmp_path / "o.csv", "w", encoding="utf-8", newline="") as out:
        write_batch_csv(out, run_batch(read_table_csv(str(tmp_path / "t.csv"))), None)
    monkeypatch.chdir(tmp_path)
    loaded = _modules_after_command(*argv)
    assert f"fisherbounds.{module}" in loaded
    assert sorted(RECORD_MACHINERY & loaded) == []


def test_plain_records_are_named_tuples():
    # the inputs that validate when built are classes; every other
    # exported class is a named tuple or an exception
    classes = set()
    for module in _exporting_modules():
        for name in module.__all__:
            obj = getattr(module, name)
            if not isinstance(obj, type) or issubclass(obj, Exception):
                continue
            if hasattr(obj, "_fields"):
                assert issubclass(obj, tuple), name
            else:
                classes.add(obj.__name__)
    assert sorted(classes) == ["ContingencyTable", "SweepSpec"]


@pytest.mark.parametrize("rows, pooled", [(2, False), (2500, True)], ids=["one-chunk", "pooled"])
def test_batch_command_loads_no_record_machinery(tmp_path, rows, pooled):
    path = tmp_path / "t.csv"
    body = "".join(f"r{i},{1000 + i},200,250,{60 + i % 40}\n" for i in range(rows))
    path.write_text("id,n,mx,ma,mxa\n" + body, encoding="utf-8")
    loaded = _modules_after_command(
        "batch", str(path), "--out", str(tmp_path / "o.csv"),
        # two usable CPUs, so three chunks go to the pool on any machine
        setup="import fisherbounds.batch\nfisherbounds.batch._usable_cpus = lambda: 2\n",
    )
    assert ("multiprocessing" in loaded) == pooled
    assert sorted(RECORD_MACHINERY & loaded) == []
    assert len((tmp_path / "o.csv").read_text(encoding="utf-8").splitlines()) == rows + 1
    # from Python 3.12, os.fork() warns "This process ... is multi-threaded"
    # when the parent has a live thread; the pool must fork none
    assert [word for word in loaded if word.startswith("multi-threaded")] == []
