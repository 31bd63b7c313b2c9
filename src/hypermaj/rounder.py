"""Discrepancy rounding of fractional edge weights.

Given weights z: E -> [0, 1], produces x: E -> {0, 1} such that at every
vertex the incident x-sum stays strictly within rank(H) of the incident
z-sum. The construction walks the fractional weights along kernel
directions of the constrained-vertex incidence system:

  1. Edges with integral z are fixed immediately.
  2. While some vertex has fractional degree >= r+1, those vertices form
     the constrained set. Their incidence rows over the fractional edges
     have more columns than rows, so the system has a nonzero kernel
     vector d. Moving the fractional weights along d preserves every
     constrained vertex's incident sum exactly.
  3. The step length is the largest t with h + t*d still inside [0, 1];
     every component that lands on 0 or 1 becomes fixed.
  4. Once no vertex is constrained, each remaining fractional edge rounds
     to the nearer integer (ties up). A vertex that left the constrained
     set has at most r fractional edges, each moving by strictly less
     than 1, which gives the strict discrepancy bound.

All arithmetic is exact, and the walk's is integer. The kernel comes from
a sparse fraction-free elimination of the integer incidence rows in column
order, each updated row divided by the gcd of its entries, followed by an
integer back-substitution. The walk keeps every fractional weight as a
reduced numerator/denominator pair and steps along the integer kernel
vector w by a step length t that is also a pair; the leftovers are rounded
from those pairs. Fractions appear only in the input Weighting, in
TraceStep.step and in the returned Weighting.

The kernel vector w is unique up to scale: it ends at the first column j
that depends on the columns before it. TraceStep.step is t*|w[j]|, the
step length along d = w/|w[j]|: the kernel vector with its first free
variable set to 1 and later ones to 0, then negated if needed so that its
first nonzero entry is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from .errors import InvariantBreach
from .hypercore import Hypergraph, Weighting

__all__ = [
    "TraceStep",
    "RoundingTrace",
    "round_weights",
]


_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TraceStep:
    n_constrained: int
    n_frac: int
    step: Fraction
    fixed: tuple[int, ...]


@dataclass(frozen=True)
class RoundingTrace:
    """Per-iteration audit of the kernel walk."""

    iterations: tuple[TraceStep, ...]


def _first_dependent(
    rows: dict[Hashable, dict[int, int]], holders: list[set]
) -> tuple[list[int], int]:
    """Integer kernel vector ending at the first column that depends on the
    columns before it.

    rows maps a row key to its nonzero integer entries {column: value}, and
    holders[c] is the set of keys of the rows nonzero in column c, for
    columns in range(len(holders)); both are consumed. Rows are eliminated
    in column order: each column takes as pivot the shortest remaining row
    that is nonzero there and clears that column from the other remaining
    rows, each updated row divided by the gcd of its entries. The first
    column j where no remaining row is nonzero depends on columns 0..j-1,
    which are independent, so the returned w (length len(holders), w[j] != 0,
    zero past j, with sum_c w[c] * column c = 0) is unique up to scale; it
    is made primitive with its first nonzero entry positive.
    """
    gcd = math.gcd
    pivots: list[tuple[int, dict[int, int]]] = []
    for c, hold in enumerate(holders):
        if not hold:
            return _back_substitute(pivots, c, len(holders)), c
        if len(hold) == 1:
            v = hold.pop()
        else:
            # the first shortest row, as min(hold, key=len of row) picks it,
            # without a key function call per row
            it = iter(hold)
            v = next(it)
            best = len(rows[v])
            for u in it:
                if len(rows[u]) < best:
                    v, best = u, len(rows[u])
            hold.remove(v)
        prow = rows.pop(v)
        # every other row in hold loses column c, so hold is left as it is
        p = prow.pop(c)
        for l in prow:
            holders[l].discard(v)
        for u in hold:
            row = rows[u]
            a = row.pop(c)
            if p != 1:
                g = gcd(p, a)
                pu, a = p // g, a // g
                if pu != 1:
                    for l in row:
                        row[l] *= pu
            for l, y in prow.items():
                if l in row:
                    x = row[l] - a * y
                    if x:
                        row[l] = x
                    else:
                        del row[l]
                        holders[l].discard(u)
                else:
                    row[l] = -a * y
                    holders[l].add(u)
            g = gcd(*row.values())
            if g > 1:
                for l in row:
                    row[l] //= g
        pivots.append((p, prow))
    raise InvariantBreach(
        "no dependent column: the system has no more columns than independent rows",
        cols=len(holders),
    )


def _back_substitute(
    pivots: list[tuple[int, dict[int, int]]], j: int, n_cols: int
) -> list[int]:
    """Solve p_k * w[k] + prow_k . w = 0 for each pivot (p_k, prow_k), k < j,
    with w[j] != 0 and w[l] = 0 past j, in integers, scaling the partial
    solution whenever a pivot does not divide. prow_k holds only columns
    past k, so its sum needs no filter."""
    w = [0] * n_cols
    w[j] = 1
    for k in range(j - 1, -1, -1):
        p, prow = pivots[k]
        s = 0
        for l, y in prow.items():
            s += y * w[l]
        if s % p:
            scale = abs(p) // math.gcd(s, p)
            for l in range(k + 1, j + 1):
                w[l] *= scale
            s *= scale
        w[k] = -s // p
    g = math.gcd(*w)
    if next(x for x in w if x) < 0:
        g = -g
    return [x // g for x in w]


def _step(
    nums: Sequence[int], dens: Sequence[int], dirs: Sequence[int]
) -> tuple[int, int, list[int]]:
    """Largest t = t_num/t_den > 0 with h + t*dirs inside [0, 1], where
    h[i] = nums[i]/dens[i] with dens[i] > 0, and the positions that land
    exactly on 0 or 1 at that t.

    The bound of each moving component is kept as num/den with den > 0 and
    compared by cross-multiplication; t is not reduced. Components with
    dirs = 0 never move; every h must be strictly interior.
    """
    t_num, t_den = 0, 0
    hits: list[int] = []
    for i, (hn, hq, di) in enumerate(zip(nums, dens, dirs)):
        if not 0 < hn < hq:
            raise InvariantBreach(
                "fractional weight not strictly inside (0, 1)", index=i, num=hn, den=hq
            )
        if di > 0:
            num, den = hq - hn, hq * di
        elif di < 0:
            num, den = hn, -hq * di
        else:
            continue
        if not t_den or num * t_den < t_num * den:
            t_num, t_den = num, den
            hits = [i]
        elif num * t_den == t_num * den:
            hits.append(i)
    if not t_den:
        raise InvariantBreach("kernel vector has no movable component")
    return t_num, t_den, hits


def _finalize_low_degree(
    h_graph: Hypergraph, frac: Sequence[int], num: Sequence[int], den: Sequence[int]
) -> dict[int, Fraction]:
    """Round the leftover fractional edges frac, edge e of weight
    num[e]/den[e], to the nearer integer (ties up).

    Only legal once every vertex has fractional degree at most rank; the
    at-most-r remaining edges per vertex each move by strictly less than 1,
    which is what keeps the final discrepancy below r. The fractional
    degrees are recounted here from frac, independently of the walk's own
    bookkeeping.
    """
    r = h_graph.rank()
    frac_deg: dict[int, int] = {}
    for e in frac:
        for v in h_graph.edges[e]:
            frac_deg[v] = frac_deg.get(v, 0) + 1
    for v, fd in frac_deg.items():
        if fd >= r + 1:
            raise InvariantBreach(
                "finalize reached with a constrained vertex remaining",
                vertex=v,
                frac_degree=fd,
                rank=r,
            )
    return {e: _ONE if 2 * num[e] >= den[e] else _ZERO for e in frac}


def round_weights(h_graph: Hypergraph, z: Weighting) -> tuple[Weighting, RoundingTrace]:
    """Round z to a 0/1 weighting x with, at every vertex v,
    sum_z(v) - r < sum_x(v) < sum_z(v) + r (strict, exact rationals).

    Entries of z already in {0, 1} are returned unchanged. The trace
    records, per kernel-walk iteration, the constrained-set size, the
    fractional edge count, the step length along the kernel vector whose
    first free variable is 1, and the edges fixed.
    """
    m = len(h_graph.edges)
    if len(z) != m:
        raise ValueError(f"weighting has {len(z)} entries for {m} edges")
    r = h_graph.rank()
    edges = h_graph.edges
    gcd = math.gcd
    # x[e] is None exactly while e is fractional; its weight is then the
    # reduced integer pair num[e] / den[e]
    x: list[Fraction | None] = [None] * m
    num = [0] * m
    den = [1] * m
    for e in range(m):
        w = z[e]
        if w.denominator == 1:
            x[e] = w
        else:
            num[e], den[e] = w.numerator, w.denominator
    frac = [e for e in range(m) if x[e] is None]  # ascending
    frac_deg = [0] * h_graph.n_vertices
    for e in frac:
        for v in edges[e]:
            frac_deg[v] += 1
    constrained = {v for v in range(h_graph.n_vertices) if frac_deg[v] > r}

    steps: list[TraceStep] = []
    while constrained:
        s = len(constrained)
        if len(frac) <= s:
            raise InvariantBreach(
                "constrained incidence system must have more columns than rows",
                rows=s,
                cols=len(frac),
            )
        # s+1 columns of s rows always hold a dependent column
        cols = frac[: s + 1]
        rows: dict[int, dict[int, int]] = {}
        holders: list[set] = []
        for c, e in enumerate(cols):
            hold = constrained & edges[e]
            holders.append(hold)
            for v in hold:
                if v in rows:
                    rows[v][c] = 1
                else:
                    rows[v] = {c: 1}
        w, j = _first_dependent(rows, holders)
        tn, tq, hits = _step([num[e] for e in cols], [den[e] for e in cols], w)
        g = gcd(tn, tq)
        tn, tq = tn // g, tq // g
        fixed_now = []
        for idx in hits:
            e = cols[idx]
            x[e] = _ONE if w[idx] > 0 else _ZERO
            fixed_now.append(e)
            for v in edges[e]:
                frac_deg[v] -= 1
                if frac_deg[v] == r:
                    constrained.discard(v)
        for e, we in zip(cols, w):
            if we and x[e] is None:
                # h + t*w over one common denominator, reduced
                hq = den[e]
                a, b = num[e] * tq + tn * we * hq, hq * tq
                g = gcd(a, b)
                num[e], den[e] = a // g, b // g
        # the trace's step is along d = w / |w[j]|, whose first free
        # variable is +-1, so it is t * |w[j]|
        step = Fraction(tn * abs(w[j]), tq)
        steps.append(TraceStep(s, len(frac), step, tuple(fixed_now)))
        frac = [e for e in cols if x[e] is None] + frac[s + 1 :]

    for e, val in _finalize_low_degree(h_graph, frac, num, den).items():
        x[e] = val
    return Weighting(x), RoundingTrace(tuple(steps))
