"""Relay placement for seafloor optical wireless backhaul.

The library answers one question in several forms: given an optical channel
model and a line (or rectangle) of seafloor to cover, where should relay
nodes sit so the harvested traffic the chain can carry is largest, and how
large is that load?  `solve` returns the optimal spacings and the supportable
load; `evaluate` scores arbitrary placements; `solver2d` extends the design
to a planar grid; `simqueue` checks the analytic boundary with a
tandem-queue simulation solved node by node as Lindley recursions.
"""

from . import channel, evaluate, scalar, simqueue, solver1d, solver2d
from .channel import *
from .evaluate import *
from .scalar import *
from .simqueue import *
from .solver1d import *
from .solver2d import *

__version__ = "0.1.0"

_MODULES = (channel, scalar, solver1d, evaluate, solver2d, simqueue)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
