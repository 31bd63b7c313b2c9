"""Iterative colour-class extraction for 1/k-majority colourings.

A hypergraph with minimum degree delta >= 2 * rank * k^2 admits a
(k+1)-edge-colouring in which every vertex sees each colour at most
floor(d(v)/k) times. The construction peels off k classes, one per
round: round i places the constant weight alpha_i on every remaining
edge and rounds it to 0/1; the edges rounded to 1 form colour i and are
removed. Whatever survives all k rounds is colour k+1.

The alpha_i are tuned so the rounding discrepancy (strictly below the
rank, per round, at every vertex) keeps two exact bounds alive for every
vertex v with original degree d(v) = B * delta:

  class bound      d_i(v)         <= B * delta / k
  remaining bound  d_rem_i(v)     <= B * (delta - i * (delta/k - 2r))

At i = k the remaining bound collapses to 2rBk <= B * delta / k, so the
residual class obeys the same per-colour cap as the extracted ones.
Both bounds are asserted after every round; a breach means the rounding
step drifted off its guarantee and is reported as such.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InvariantBreach, PreconditionError
from .hypercore import Colouring, Hypergraph
from .rounder import _walk

# not called here: the rounds run the rounder's integer core, but the
# benchmark's tracer (bench/spans.py) still looks this name up
from .rounder import round_weights  # noqa: F401


def alpha_schedule(delta: int, k: int, r: int) -> tuple[Fraction, ...]:
    """All k round weights, exact rationals; round i uses

        alpha_i = (delta/k - r) / (delta - (i-1) * (delta/k - 2r))

    Requires delta >= 2 * r * k^2, which makes every value land strictly
    inside (0, 1).
    """
    if delta < 2 * r * k * k:
        raise PreconditionError(
            f"min degree {delta} with rank {r} and k {k} requires at least {2 * r * k * k}"
        )
    num = Fraction(delta, k) - r
    step = Fraction(delta, k) - 2 * r
    # from a list, not a generator (see Hypergraph._index)
    alphas = tuple([num / (delta - (i - 1) * step) for i in range(1, k + 1)])
    for i, a in enumerate(alphas, start=1):
        if not 0 < a < 1:
            raise InvariantBreach(
                "round weight escaped (0, 1)", i=i, alpha=a, delta=delta, k=k, r=r
            )
    return alphas


def check_class_bounds(
    h_graph: Hypergraph,
    i: int,
    class_edges: Iterable[int],
    remaining: Iterable[int],
    delta: int,
    k: int,
    r: int,
) -> None:
    """Assert the round-i degree bounds at every vertex, exactly.

    delta and r are the minimum degree and rank of the original input.
    With B = d(v)/delta: the freshly extracted class may meet v at most
    B*delta/k times, and the remaining edges at most
    B*(delta - i*(delta/k - 2r)) times. These are the induction
    invariants of the peeling argument; a breach is a rounder bug, not a
    property of the input.
    """
    class_deg = [0] * h_graph.n_vertices
    for e in class_edges:
        for v in h_graph.edges[e]:
            class_deg[v] += 1
    rem_deg = [0] * h_graph.n_vertices
    for e in remaining:
        for v in h_graph.edges[e]:
            rem_deg[v] += 1
    # both caps times k * delta, so the comparisons stay in integers:
    # k * class_deg > d, and k * delta * rem_deg > d * rem_cap with
    # rem_cap = k*delta - i*(delta - 2rk); the Fraction bound is built
    # only for a breach report
    kd = k * delta
    rem_cap = kd - i * (delta - 2 * r * k)
    for v, d in enumerate(h_graph.degrees()):
        if k * class_deg[v] > d:
            raise InvariantBreach(
                "colour class degree exceeded its cap",
                v=v,
                i=i,
                observed=class_deg[v],
                bound=Fraction(d, delta) * Fraction(delta, k),
            )
        if kd * rem_deg[v] > d * rem_cap:
            raise InvariantBreach(
                "remaining degree exceeded its cap",
                v=v,
                i=i,
                observed=rem_deg[v],
                bound=Fraction(d, delta) * (delta - i * (Fraction(delta, k) - 2 * r)),
            )


def partition_rounds(
    h_graph: Hypergraph, k: int
) -> tuple[Colouring, tuple[Fraction, ...]]:
    """Run the k extraction rounds; return the colouring and the round
    weights.

    Colour i (1 <= i <= k) is the class extracted in round i with weight
    alphas[i-1]; colour k+1 is the residual class. Raises a precondition
    error when k < 2 or, from alpha_schedule, when the minimum degree is
    below 2 * rank * k^2; the message reports all three parameters and
    the bound.
    """
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    m = len(h_graph.edges)
    r = h_graph.rank()
    if m == 0:
        return Colouring((), k + 1), ()
    delta = h_graph.min_degree()
    alphas = alpha_schedule(delta, k, r)
    colours = [k + 1] * m
    remaining: set[int] = set(range(m))
    for i, a in enumerate(alphas, start=1):
        # alpha on the remaining edges and 0 elsewhere, as integer pairs
        p, q = a.numerator, a.denominator
        num = [p if e in remaining else 0 for e in range(m)]
        den = [q if e in remaining else 1 for e in range(m)]
        bits, _ = _walk(h_graph, num, den)
        class_i = [e for e in remaining if bits[e]]
        remaining.difference_update(class_i)
        for e in class_i:
            colours[e] = i
        check_class_bounds(h_graph, i, class_i, remaining, delta, k, r)
    return Colouring(colours, k + 1), alphas


def colour_partition(h_graph: Hypergraph, k: int) -> Colouring:
    """(k+1)-colouring in which every vertex sees each colour at most
    floor(d(v)/k) times, built by the peeling rounds.
    """
    return partition_rounds(h_graph, k)[0]
