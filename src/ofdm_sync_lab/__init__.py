"""Joint CFO/SFO estimation laboratory for a two-symbol OFDM preamble.

The package simulates a burst of two identical QPSK training symbols
through a multipath channel with carrier- and sampling-frequency
offsets, implements two grid-search estimators of the offset pair (a
cross-symbol matching estimator and a ratio-based one), evaluates the
Cramer-Rao bounds for both parameters in closed form, and drives
deterministic Monte-Carlo sweeps that export the comparison datasets as
CSV. It exports what its commands run: the numeric Fisher oracle that
cross-checks the closed form, and the one-trial definition of a random
stream, live with the tests in ``tests/reference.py``.
"""

from . import crb, estimators, harness, ofdm_model
from .ofdm_model import *
from .estimators import *
from .crb import *
from .harness import *

__version__ = "0.1.0"

# The public API is every layer's ``__all__``.
__all__ = ["__version__", *ofdm_model.__all__, *estimators.__all__,
           *crb.__all__, *harness.__all__]
