"""Malmsten-type logarithmic integrals: gamma-function closed forms,
double-exponential quadrature, and machine checks of the identity chain
connecting them.

Every name in a library module's ``__all__`` is exported here; the
command line, ``malmsten.cli``, is imported on its own."""

from .closedform import *
from .proofchain import *
from .quad import *
from .specfun import *

__version__ = "0.1.0"

__all__ = closedform.__all__ + proofchain.__all__ + quad.__all__ + specfun.__all__
