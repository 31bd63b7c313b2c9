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

from .errors import (
    FormatError,
    GenerationError,
    InvariantBreach,
    PreconditionError,
)
from .genlab import (
    GenSpec,
    VerifyReport,
    Violation,
    brute_force,
    generate,
    verify,
)
from .hypercore import (
    Colouring,
    Hypergraph,
    Weighting,
    parse_colouring,
    parse_hypergraph,
    parse_weights,
    serialize_colouring,
    serialize_hypergraph,
    serialize_weights,
)
from .linearhg import (
    LineGraph,
    colour_linear,
    greedy_colour,
    line_graph,
    split_hypergraph,
)
from .lll import (
    ResampleRun,
    bad_vertices,
    inequalities_hold,
    resample_colour,
    threshold,
    threshold_details,
)
from .partition import (
    alpha_schedule,
    colour_partition,
    partition_rounds,
)
from .rounder import (
    RoundingTrace,
    TraceStep,
    round_weights,
)

__version__ = "0.1.0"

__all__ = [
    "Colouring",
    "FormatError",
    "GenSpec",
    "GenerationError",
    "Hypergraph",
    "InvariantBreach",
    "LineGraph",
    "PreconditionError",
    "ResampleRun",
    "RoundingTrace",
    "TraceStep",
    "VerifyReport",
    "Violation",
    "Weighting",
    "alpha_schedule",
    "bad_vertices",
    "brute_force",
    "colour_linear",
    "colour_partition",
    "generate",
    "greedy_colour",
    "inequalities_hold",
    "line_graph",
    "parse_colouring",
    "parse_hypergraph",
    "parse_weights",
    "partition_rounds",
    "resample_colour",
    "round_weights",
    "serialize_colouring",
    "serialize_hypergraph",
    "serialize_weights",
    "split_hypergraph",
    "threshold",
    "threshold_details",
    "verify",
]
