"""Probabilistic threshold and randomized colouring with local resampling.

A uniformly random (k+1)-colouring of the edges is 1/k-majority at
vertex u unless some colour appears more than d(u)/k times there. Once
the minimum degree clears a threshold delta*(k, r), defined by

    4(k+1) e^(-delta / (3k^2(k+1)))            <= 1
    8(k+1)(r-1) e^(-delta / (3k^2(k+1))) delta <= 1

holding at delta and every larger degree, such a colouring exists. The
constructive surrogate here redraws the incident edges of the lowest-id
bad vertex until no bad vertex remains, with a hard round cap; running
out of rounds is a reportable outcome, not an error, since below the
threshold no guarantee applies. When some vertex has (k+1)*(d(v)//k) <
d(v), its k+1 colours hold too few edges, no valid colouring exists at
all, and the run reports "infeasible" at round 0 without resampling.
That includes every 0 < d(v) < k, and no d(v) >= k^2 - k.

The resampler keeps, per vertex, its colour counts, its bound d(v)//k
and how many colours exceed the bound, plus a min-heap of bad vertex ids
whose entries that turned good are dropped lazily when they reach the
top. A round redraws the d(v) edges at the heap's lowest id and updates
the counts at the r vertices of each edge whose colour changed, so it
costs O(d(v) r) rather than a rescan of all m r incidences; the random
stream, and with it every round, matches the rescan's.

Every colour comes from one draw rule: with palette P = k+1 and
b = P.bit_length(), take rng.getrandbits(b) until the value is below P,
then add 1. On CPython 3.10-3.13 that is random.Random(seed).randint(1,
k+1) draw for draw, generator state included, since randint takes the
same path through _randbelow_with_getrandbits. The stream is fixed by
this package, not by randint's internals, so a later Python that changes
randint changes no run here. Seeds are non-negative: random.Random seeds
from |seed|, so a negative seed would repeat its absolute value's run.

The threshold scan needs care: the second left-hand side rises with
delta up to its stationary point at delta = 3k^2(k+1) and falls beyond
it. At the stationary point the value is at least 24 (k+1)^2 k^2 / e,
far above 1 for every k, r >= 2, so every passing delta lies strictly
beyond the stationary point, where both sides are decreasing: the
predicate is monotone there, and doubling then bisection finds the
least delta that passes for good in O(log delta*) evaluations.

Inequalities are evaluated in stdlib decimal arithmetic at 40
significant digits (the exponential by Decimal.exp, correctly rounded)
with a relative safety margin of 2^-30: a left-hand side within the
margin of 1 counts as failing, so borderline roundoff can only make the
reported threshold larger, never unsound.
"""

from __future__ import annotations

import heapq
import random
from decimal import Decimal, localcontext
from itertools import count, islice
from typing import TYPE_CHECKING, Iterator

from ._record import frozen_record
from .errors import InvariantBreach, PreconditionError

# hypercore and genlab are imported inside the functions that use them,
# so that the threshold search loads neither
if TYPE_CHECKING:
    from .hypercore import Colouring, Hypergraph

_WORK_DIGITS = 40
# 1 - 2^-30 is exact in binary, and Decimal converts a float exactly
_CUTOFF = Decimal(1 - 2.0**-30)


@frozen_record
class ResampleRun:
    """Result of one seeded resampling run.

    outcome is "success" (colouring is set and majority-valid),
    "exhausted" (the round cap was hit; colouring holds the final,
    still-invalid state for inspection) or "infeasible" (some vertex has
    (k+1)*(d(v)//k) < d(v), so no colouring is valid; the run stops at
    round 0 and colouring holds the first draw).
    """

    seed: int
    max_rounds: int
    rounds_used: int
    outcome: str
    colouring: Colouring


def _lhs_values(k: int, r: int, delta: int) -> tuple[Decimal, Decimal]:
    """Both left-hand sides at delta, to _WORK_DIGITS significant digits."""
    with localcontext() as ctx:
        ctx.prec = _WORK_DIGITS
        decay = (Decimal(-delta) / (3 * k * k * (k + 1))).exp()
        lhs1 = 4 * (k + 1) * decay
        lhs2 = 8 * (k + 1) * (r - 1) * decay * delta
        return lhs1, lhs2


def inequalities_hold(k: int, r: int, delta: int) -> bool:
    """Whether both threshold inequalities hold at (k, r, delta),
    with the safety margin counted against the candidate."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if r < 2:
        raise PreconditionError(f"r must be at least 2, got {r}")
    if delta < 1:
        raise PreconditionError(f"delta must be at least 1, got {delta}")
    lhs1, lhs2 = _lhs_values(k, r, delta)
    return lhs1 <= _CUTOFF and lhs2 <= _CUTOFF


def threshold(k: int, r: int) -> int:
    """Least delta* such that the inequalities hold at every
    delta >= delta*. k and r are checked by the first inequalities_hold."""
    stationary = 3 * k * k * (k + 1)
    # The second inequality cannot hold at its own maximum, so the search
    # below runs entirely in the decreasing regime, where the predicate
    # fails up to delta* and holds from there on.
    if inequalities_hold(k, r, stationary):
        raise InvariantBreach(
            "threshold inequalities hold at their stationary point",
            k=k,
            r=r,
            delta=stationary,
        )
    # Double to bracket delta* in (fail, hold], then bisect.
    fail, hold = stationary, 2 * stationary
    while not inequalities_hold(k, r, hold):
        fail, hold = hold, 2 * hold
    while hold - fail > 1:
        mid = (fail + hold) // 2
        if inequalities_hold(k, r, mid):
            hold = mid
        else:
            fail = mid
    return hold


def threshold_details(k: int, r: int) -> tuple[int, float, float]:
    """(delta*, lhs1, lhs2) with the left-hand sides evaluated at
    delta*."""
    delta = threshold(k, r)
    lhs1, lhs2 = _lhs_values(k, r, delta)
    return delta, float(lhs1), float(lhs2)


def bad_vertices(h_graph: Hypergraph, colouring: Colouring, k: int) -> set[int]:
    """Vertices where some colour appears more than d(v)/k times: the
    vertices of the majority verifier's violations."""
    from .genlab import verify

    if colouring.palette_size != k + 1:
        raise ValueError(
            f"palette size {colouring.palette_size} does not match k+1 = {k + 1}"
        )
    return {vio.vertex for vio in verify(h_graph, k, colouring).violations}


def _draws(rng: random.Random, palette: int) -> Iterator[int]:
    """Colours uniform on 1..palette, without end: one getrandbits(b) per
    attempt, b = palette.bit_length(), until the value is below palette.
    Wide getrandbits calls are avoided on purpose, since how their words
    are ordered is CPython's choice, not this rule's."""
    bits = palette.bit_length()
    getrandbits = rng.getrandbits
    while True:
        c = getrandbits(bits)
        while c >= palette:
            c = getrandbits(bits)
        yield c + 1


def resample_colour(
    h_graph: Hypergraph, k: int, seed: int, max_rounds: int | None = None
) -> ResampleRun:
    """Draw a random colouring, then repeatedly redraw the incident
    edges of the lowest-id bad vertex. Stops with "success" when no bad
    vertex remains, or "exhausted" after max_rounds resamplings
    (default 10000 per edge). The k+1 colours at a vertex hold at most
    (k+1)*(d(v)//k) edges, so when some vertex has more, every colouring
    is bad there: the run returns "infeasible" at round 0 instead of
    spending the cap.

    Colour counts per vertex are kept up to date edge by edge, so a
    round costs O(d(v) r) for the d(v) redrawn edges of rank up to r.

    Colours are drawn by the module's rule, which gives exactly
    random.Random(seed).randint(1, k + 1), one call per edge; the seed
    must be non-negative."""
    from .hypercore import Colouring

    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    edges = h_graph.edges
    if max_rounds is None:
        max_rounds = 10_000 * len(edges)
    elif max_rounds < 0:
        raise PreconditionError(f"max_rounds must be non-negative, got {max_rounds}")
    draws = _draws(random.Random(seed), k + 1)
    colours = list(islice(draws, len(edges)))
    degrees = h_graph.degrees()
    if any((k + 1) * (d // k) < d for d in degrees):
        return ResampleRun(seed, max_rounds, 0, "infeasible", Colouring(colours, k + 1))
    bounds = [d // k for d in degrees]
    # counts[v][c]: edges of colour c at v; over[v]: colours whose count
    # exceeds v's bound, so v is bad exactly when over[v] > 0. Only vertices
    # with edges, each of degree >= k by now, get a table: O(sum d) in all.
    counts = [[0] * (k + 2) if d else () for d in degrees]
    for c, fs in zip(colours, edges):
        for v in fs:
            counts[v][c] += 1
    over = [sum(n > b for n in per) for per, b in zip(counts, bounds)]
    # A min-heap of every bad vertex, built in the first round: v is pushed
    # as over[v] goes from 0 to 1 and good entries are dropped at the top;
    # a rebuild past 2n entries clears repeats at O(1) amortised per push.
    heap: list[int] = []
    for rounds in count():
        if not heap or len(heap) > 2 * len(over):
            heap = [v for v, n in enumerate(over) if n]  # ascending: a heap
        while heap and not over[heap[0]]:
            heapq.heappop(heap)
        if not heap or rounds >= max_rounds:
            outcome = "exhausted" if heap else "success"
            return ResampleRun(
                seed, max_rounds, rounds, outcome, Colouring(colours, k + 1)
            )
        # the incidence goes first, so zip never takes a draw past its end
        for e, new in zip(h_graph.incident_edges(heap[0]), draws):
            old = colours[e]
            if new == old:
                continue
            colours[e] = new
            for u in edges[e]:
                per, b = counts[u], bounds[u]
                if per[old] == b + 1:
                    over[u] -= 1
                per[old] -= 1
                per[new] += 1
                if per[new] == b + 1:
                    over[u] += 1
                    if over[u] == 1:
                        heapq.heappush(heap, u)
