"""Monetary Minute toolkit.

A Monetary Minute is the 1/525600 share of an economy's yearly time
capacity; its price in a currency is GDP per capita divided by the
minutes in a year.  This package computes those values, derives them
across exchange rates, re-prices quotes and salaries in minutes, finds
hypothetical parity rates, and tracks the M1 money stock in minutes over
time, with CSV ingestion and deterministic table rendering on top.

Each module lists its public names in its own ``__all__``; the package
exports exactly their union.  ``import monmin`` loads none of them: a
submodule, or the module that lists a name, is imported on first use
(PEP 562), walking the modules from the lowest layer up, so
``monmin.CurrencyCode`` loads ``errors`` and ``core`` alone.  ``__all__``
itself, and so ``from monmin import *``, imports all of them.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LAYERS = ("errors", "core", "series", "ingest", "report")  # each after the modules it imports


def __getattr__(name: str):
    if name == "__all__":
        value = [public for module in map(_import, _LAYERS) for public in module.__all__]
    elif name in _LAYERS or name == "cli":
        value = _import(name)
    else:  # a private name is never looked for, so a probe such as hasattr(monmin, "_x") imports nothing
        homes = (module for module in map(_import, _LAYERS) if name in module.__all__)
        home = None if name.startswith("_") else next(homes, None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def _import(layer: str):
    return _import_module(f".{layer}", __name__)
