"""1/k-majority (k+1)-edge-colouring of hypergraphs.

A colouring is 1/k-majority when every vertex sees each colour at most
floor(d(v)/k) times among its incident edges. Three colourers are
provided, each behind its own precondition:

- colour_partition: any hypergraph with min degree >= 2 * rank * k^2;
  palette k+1, built by iterative discrepancy rounding.
- colour_linear: any hypergraph with min degree >= k^2 - k; palette
  k*rank + 1, built by vertex splitting and greedy colouring.
- resample_colour: randomized with local resampling; guided by the
  degree threshold from the probabilistic argument.

The rounding engine (round_weights) and the verifier/generators are
public as well.
"""

from . import errors, genlab, hypercore, linearhg, lll, partition, rounder
from .errors import *  # noqa: F403
from .genlab import *  # noqa: F403
from .hypercore import *  # noqa: F403
from .linearhg import *  # noqa: F403
from .lll import *  # noqa: F403
from .partition import *  # noqa: F403
from .rounder import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of what it exports
__all__ = [
    *errors.__all__,
    *genlab.__all__,
    *hypercore.__all__,
    *linearhg.__all__,
    *lll.__all__,
    *partition.__all__,
    *rounder.__all__,
]
