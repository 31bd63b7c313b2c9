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
threshold no guarantee applies (and for d(v) < k no valid colouring
exists at all).

The threshold scan needs care: the second left-hand side rises with
delta up to its stationary point at delta = 3k^2(k+1) and falls beyond
it. At the stationary point the value is at least 24 (k+1)^2 k^2 / e,
far above 1 for every k, r >= 2, so every passing delta lies strictly
beyond the stationary point, where both sides are decreasing and a
single upward scan finds the least delta that passes for good.

Inequalities are evaluated in stdlib decimal arithmetic at 40
significant digits (the exponential by Decimal.exp, correctly rounded)
with a relative safety margin of 2^-30: a left-hand side within the
margin of 1 counts as failing, so borderline roundoff can only make the
reported threshold larger, never unsound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import InvariantBreach, PreconditionError
from .genlab import verify
from .hypercore import Colouring, Hypergraph

__all__ = [
    "ResampleRun",
    "inequalities_hold",
    "threshold",
    "threshold_details",
    "random_colouring",
    "bad_vertices",
    "resample_colour",
]

_WORK_DIGITS = 40
# 1 - 2^-30 is exact in binary, and Decimal converts a float exactly
_CUTOFF = Decimal(1 - 2.0**-30)


@dataclass(frozen=True)
class ResampleRun:
    """Result of one seeded resampling run.

    outcome is "success" (colouring is set and majority-valid) or
    "exhausted" (the round cap was hit; colouring holds the final,
    still-invalid state for inspection).
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
    delta >= delta*."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    if r < 2:
        raise PreconditionError(f"r must be at least 2, got {r}")
    stationary = 3 * k * k * (k + 1)
    delta = max(1, stationary)
    # The second inequality cannot hold at its own maximum, so the scan
    # below runs entirely in the decreasing regime.
    if inequalities_hold(k, r, stationary):
        raise InvariantBreach(
            "threshold inequalities hold at their stationary point",
            k=k,
            r=r,
            delta=stationary,
        )
    while not inequalities_hold(k, r, delta):
        delta += 1
    return delta


def threshold_details(k: int, r: int) -> tuple[int, float, float]:
    """(delta*, lhs1, lhs2) with the left-hand sides evaluated at
    delta*."""
    delta = threshold(k, r)
    lhs1, lhs2 = _lhs_values(k, r, delta)
    return delta, float(lhs1), float(lhs2)


def random_colouring(h_graph: Hypergraph, k: int, seed: int) -> Colouring:
    """Each edge's colour drawn uniformly from {1..k+1}, in edge order,
    from a generator seeded with `seed`."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    rng = random.Random(seed)
    return Colouring(
        [rng.randint(1, k + 1) for _ in h_graph.edges], k + 1
    )


def bad_vertices(h_graph: Hypergraph, colouring: Colouring, k: int) -> set[int]:
    """Vertices where some colour appears more than d(v)/k times: the
    vertices of the majority verifier's violations."""
    if colouring.palette_size != k + 1:
        raise ValueError(
            f"palette size {colouring.palette_size} does not match k+1 = {k + 1}"
        )
    return {vio.vertex for vio in verify(h_graph, k, colouring).violations}


def resample_colour(
    h_graph: Hypergraph, k: int, seed: int, max_rounds: int | None = None
) -> ResampleRun:
    """Draw a random colouring, then repeatedly redraw the incident
    edges of the lowest-id bad vertex. Stops with "success" when no bad
    vertex remains, or "exhausted" after max_rounds resamplings
    (default 10000 per edge)."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    m = len(h_graph.edges)
    if max_rounds is None:
        max_rounds = 10_000 * m
    rng = random.Random(seed)
    colours = [rng.randint(1, k + 1) for _ in range(m)]
    rounds = 0
    while True:
        current = Colouring(colours, k + 1)
        bad = bad_vertices(h_graph, current, k)
        if not bad:
            return ResampleRun(seed, max_rounds, rounds, "success", current)
        if rounds >= max_rounds:
            return ResampleRun(seed, max_rounds, rounds, "exhausted", current)
        v = min(bad)
        for e in h_graph.incident_edges(v):
            colours[e] = rng.randint(1, k + 1)
        rounds += 1
