"""Entanglement redistribution between three Dirac modes at the Hawking
temperature of a Schwarzschild black hole.

The package pairs closed-form expressions for every two-mode measure
with a spectral pipeline (symmetric eigenvalue problems on each pair
state ``L L^dagger``) and cross-checks the two routes wherever numbers
are produced.
"""

from . import measures, model, sweep
from .measures import *  # noqa: F403
from .model import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *measures.__all__, *model.__all__, *sweep.__all__]
