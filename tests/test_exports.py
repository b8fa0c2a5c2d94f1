"""The package exports each library module's ``__all__``, and nothing else."""

import importlib

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
