"""Two-tier downlink simulator and solver suite for dual-connectivity
profile allocation: one macro station overlaid with small stations on a
separate carrier, equal bandwidth sharing per station, and per-UE serving
profiles chosen to maximize the network sum-rate. The package re-exports
each layer module's __all__; a public name is listed only by its owner."""

from . import allocation, harness, kernels, solvers, topology
from .topology import *
from .allocation import *
from .kernels import *
from .solvers import *
from .harness import *

__version__ = "0.1.0"

__all__ = [*topology.__all__, *allocation.__all__, *kernels.__all__, *solvers.__all__,
           *harness.__all__]
