"""Exact-arithmetic workbench for the Erdős–Moser power-sum equation
1^k + 2^k + ... + (m-1)^k = m^k.

Every computation is exact (big integers and rationals): direct power
sums, full and truncated Euler-Maclaurin expansions, the cleared integer
polynomials whose rational roots bound possible solutions, sign and
dominance-ratio analyses at the candidate roots, and a brute-force
solution search.  The :mod:`erdosmoser.cli` module serializes all of it as
CSV/JSON datasets.

The package exports each library module's ``__all__`` and imports a
module only when one of its names is first looked up (PEP 562), so a CLI
run loads just the modules its subcommand uses.  A submodule name such as
``cli`` resolves to the submodule alone, and a private name imports nothing.
"""

__version__ = "0.1.0"

_MODULES = ("approx", "arith", "candidates", "errors", "polyform", "powersum", "search", "signanalysis")


def _module(name: str):
    from importlib import import_module
    return import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":  # a submodule, not a name in some __all__
        return _module(name)
    if name == "__all__":
        value = [public for module in _MODULES for public in _module(module).__all__]
    else:
        # no __all__ holds a private name (a private submodule, or a probe such
        # as __wrapped__), so none is searched and nothing is imported
        modules = () if name.startswith("_") else map(_module, _MODULES)
        owner = next((m for m in modules if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
