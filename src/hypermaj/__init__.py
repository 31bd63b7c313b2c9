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

_EXPORTS below is the one statement of the package's public names: it
maps each library module to the names it exports, and __all__ is its
concatenation. The package loads its modules lazily (PEP 562): a bare
`import hypermaj` loads none of them, a submodule (a library module or
cli) resolves by its name, and a public name loads only its home module
(and what that module imports) on first use.
"""

import importlib

__version__ = "0.1.0"

# The instance models of genlab.generate, stated here so that the CLI can
# offer them as --model choices without loading genlab.
GEN_MODELS = ("uniform", "linear", "graph", "regular")

# Each library module and the names it exports, in the package's order.
_EXPORTS = {
    "errors": ("FormatError", "PreconditionError", "InvariantBreach", "GenerationError"),
    "genlab": ("Violation", "VerifyReport", "verify", "brute_force", "GenSpec", "generate"),
    "hypercore": (
        "Hypergraph", "Colouring", "Weighting",
        "parse_hypergraph", "serialize_hypergraph",
        "parse_colouring", "serialize_colouring",
        "parse_weights", "serialize_weights",
    ),
    "linearhg": ("split_hypergraph", "colour_linear"),
    "lll": (
        "ResampleRun", "inequalities_hold", "threshold", "threshold_details", "resample_colour",
    ),
    "partition": ("alpha_schedule", "partition_rounds", "colour_partition"),
    "rounder": ("TraceStep", "RoundingTrace", "round_weights"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name in _EXPORTS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    home = next((mod for mod, names in _EXPORTS.items() if name in names), None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value
