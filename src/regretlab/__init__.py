"""regretlab: no-regret learning dynamics with mechanically checked guarantees.

A library and CLI for running decentralized learning in finite normal-form
games (including first-price auctions) and splittable routing games, with
certificates for every guarantee the implemented algorithms carry: per-player
variation bounds, constant sum-of-regrets in self-play, T^{1/4} individual
rates, adversarially robust doubling-wrapper bounds, and smooth-game welfare
floors.
"""

from .auctions import *
from .config import *
from .continuous import *
from .costmode import *
from .dynamics import *
from .experiment import *
from .games import *
from .learners import *
from .library import *
from .regularizers import *
from .robust import *
from .svgplot import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__.  A star import
# also binds its submodule here, so each module above is a name of this one.
__all__ = [*dict.fromkeys(name for module in (
    auctions, config, continuous, costmode, dynamics, experiment, games,
    learners, library, regularizers, robust, svgplot) for name in module.__all__), "__version__"]
