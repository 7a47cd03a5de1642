"""Cooperative exhaustive search on a circular region.

Analytic expected-search-time formulas and a Monte-Carlo harness for comparing
region-division methods (equal, semi-equal, random, proportional) and sweep
strategies (one-directional, two-directional, grouped, proportional), for
homogeneous and heterogeneous agent speeds.

The package API is the union of the `__all__` lists of `model`, `allocation`,
`analytics` and `harness`; a public name is declared once, in its module's list.
"""

__version__ = "0.1.0"

from . import allocation, analytics, harness, model
from .allocation import *
from .analytics import *
from .harness import *
from .model import *

__all__ = ["__version__", *model.__all__, *allocation.__all__, *analytics.__all__, *harness.__all__]
