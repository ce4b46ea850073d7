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
"""

__version__ = "0.1.0"

from . import core, equilibrium, montecarlo, stopping, thresholds
from .core import *
from .equilibrium import *
from .montecarlo import *
from .stopping import *
from .thresholds import *

__all__ = ["__version__", *core.__all__, *thresholds.__all__,
           *stopping.__all__, *equilibrium.__all__, *montecarlo.__all__]
