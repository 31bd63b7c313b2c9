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

The package loads its modules lazily (PEP 562): a bare `import hypermaj`
loads none of them, and a name is looked up, and its modules loaded, on
first use. A submodule (a library module or cli) resolves by its name,
__all__ to the concatenation of the library modules' lists in _MODULES
order, and any other public name to the object of the first module
whose __all__ lists it.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ lists make up the package's, in this order
_MODULES = ("errors", "genlab", "hypercore", "linearhg", "lll", "partition", "rounder")

# The instance models of genlab.generate, stated here so that the CLI can
# offer them as --model choices without loading genlab.
GEN_MODELS = ("uniform", "linear", "graph", "regular")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return _module(name)
    if name == "__all__":
        value = [n for m in _MODULES for n in _module(m).__all__]
    else:
        # private and dunder names are never exported: a probe for one
        # (hasattr(hypermaj, "__wrapped__")) loads nothing
        home = None
        if not name.startswith("_"):
            home = next((mod for mod in map(_module, _MODULES) if name in mod.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value
