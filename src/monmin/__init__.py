"""Monetary Minute toolkit.

A Monetary Minute is the 1/525600 share of an economy's yearly time
capacity; its price in a currency is GDP per capita divided by the
minutes in a year.  This package computes those values, derives them
across exchange rates, re-prices quotes and salaries in minutes, finds
hypothetical parity rates, and tracks the M1 money stock in minutes over
time, with CSV ingestion and deterministic table rendering on top.

Each module lists its public names in its own ``__all__``; the package
exports exactly their union.
"""

from . import core, errors, ingest, report, series
from .core import *
from .errors import *
from .ingest import *
from .report import *
from .series import *

__version__ = "0.1.0"

__all__ = []
__all__ += core.__all__
__all__ += errors.__all__
__all__ += ingest.__all__
__all__ += report.__all__
__all__ += series.__all__
