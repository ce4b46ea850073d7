"""Economically secure delay parameters for VDF-based randomness beacons.

A delay function is only as safe as the economics around it: an attacker
with faster hardware pays cost_rate * delay / speedup to learn or bias a
beacon output worth V. This package computes the delay thresholds that
make such attacks unprofitable (closed forms for grinding, selective
abort, coalitions, protocol composition and multi-round horizons), solves
the attacker's dynamic compute/idle problem on a grid, solves the
multi-attacker entry game, and cross-validates everything by seeded Monte
Carlo. The `esdp` command line exposes each piece and regenerates the
bundled case studies.

`import esdp` loads no submodule. The first lookup of any other name
imports the modules in _MODULES and binds every name in their `__all__`
lists. No module loads numpy until a function that builds arrays runs.
"""

__version__ = "0.1.0"

_MODULES = ("core", "thresholds", "stopping", "equilibrium", "montecarlo")


def __getattr__(name):
    if "__all__" not in globals():
        from importlib import import_module
        exported = ["__version__"]
        for submodule in _MODULES:
            module = import_module(f".{submodule}", __name__)
            globals().update((each, getattr(module, each))
                             for each in module.__all__)
            exported += module.__all__
        globals()["__all__"] = exported
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
