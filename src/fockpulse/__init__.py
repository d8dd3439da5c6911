"""Composite-pulse design and phonon-population readout for trapped ions.

The package models a laser-driven two-level ion coupled to one motional mode
on a truncated Fock space, optimizes trains of square pulses against
modulus-matrix targets, and corrects population measurements taken with the
resulting imperfect pulses through a linear inversion.

Each module's ``__all__`` is the one list of its public names; the package
exports their union.
"""

from . import fockspace, library, objective, optimizer, pulses, robustness, thermometry
from .fockspace import *  # noqa: F403
from .library import *  # noqa: F403
from .objective import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .pulses import *  # noqa: F403
from .robustness import *  # noqa: F403
from .thermometry import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (fockspace, library, objective, optimizer, pulses, robustness, thermometry)
__all__ = [name for module in _MODULES for name in module.__all__]
