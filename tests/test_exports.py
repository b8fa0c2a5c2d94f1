"""The package exports each library module's ``__all__``, and nothing else."""

import importlib
import subprocess
import sys
from pathlib import Path

import erdosmoser

MODULES = [
    importlib.import_module(f"erdosmoser.{name}")
    for name in ("approx", "arith", "candidates", "errors", "polyform", "powersum", "search", "signanalysis")
]


def test_all_is_the_union_of_the_module_lists():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union)  # no name declared by two modules
    assert sorted(erdosmoser.__all__) == sorted(union)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(erdosmoser, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from erdosmoser import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(erdosmoser.__all__)


def fresh(code):
    """What ``code`` prints in a fresh interpreter that imports this package."""
    src = str(Path(erdosmoser.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dir_lists_every_exported_name():
    # fresh, so that no earlier lookup has bound the names in the package
    code = "import erdosmoser; print(set(erdosmoser.__all__) <= set(dir(erdosmoser)))"
    assert fresh(code) == "True\n"


def test_submodule_name_loads_only_that_submodule():
    # erdosmoser.search is the submodule itself, and resolving it searches
    # no other module's __all__
    code = ("import sys, erdosmoser; module = erdosmoser.search; "
            "print(module is sys.modules['erdosmoser.search'], "
            "'erdosmoser.signanalysis' in sys.modules, 'erdosmoser.candidates' in sys.modules)")
    assert fresh(code) == "True False False\n"
