"""Discrepancy rounding of fractional edge weights.

Given weights z: E -> [0, 1], produces x: E -> {0, 1} such that at every
vertex the incident x-sum stays strictly within rank(H) of the incident
z-sum. The construction is the Beck-Fiala walk ("Integer-making
theorems", 1981) along kernel directions of the constrained-vertex
incidence system:

  1. Edges with integral z are fixed immediately.
  2. While some vertex has fractional degree >= r+1, those vertices form
     the constrained set. Moving the fractional weights along a kernel
     vector d of their incidence rows over the fractional edges preserves
     every constrained vertex's incident sum exactly.
  3. The step length is the largest t with h + t*d still inside [0, 1];
     every component that lands on 0 or 1 becomes fixed.
  4. Once no vertex is constrained, each remaining fractional edge rounds
     to the nearer integer (ties up). A vertex that left the constrained
     set has at most r fractional edges, each moving by strictly less
     than 1, which gives the strict discrepancy bound.

Any kernel vector will do, and one is found on a small window of columns.
A kernel vector supported on a set W of fractional edges only has to
vanish on the rows R that W touches, and it exists once |W| > |R|. The
window is such a W: each of its edges has a constrained member, and R is
the set of constrained vertices it touches. It is kept from one iteration
to the next. After each step the fixed edges leave it, and so does any
edge with no constrained member left. Then, while |W| <= |R|, it grows by
the candidate edge (fractional, outside W, with a constrained member) that
brings the fewest constrained vertices not yet in R, ties to the lowest
edge id. A candidate always exists: every constrained vertex has at least
r+1 fractional edges, each edge covers at most r rows, so once every
candidate is in W, |W| > |R|.

Growth costs no rescan. Each candidate's count of constrained members
outside R sits in a bucket, a min-heap of edge ids per count 0..r. A count
changes only when a row joins or leaves R, or when a vertex leaves the
constrained set, and then only at that vertex's fractional edges, so each
such change costs O(fractional degree). Heap entries whose count has moved
on are dropped when they come up.

All arithmetic is exact, and the walk's is integer. The kernel comes from
a sparse fraction-free elimination of the window's integer incidence rows
in column order (W in ascending edge id), with a row divided by the gcd of
its entries after any update that could multiply them, followed by an
integer back-substitution. The walk keeps every fractional weight as a
reduced numerator/denominator pair and steps along the integer kernel
vector w by a step length t that is also a pair; the leftovers are rounded
from those pairs. Fractions appear only in the input Weighting, in
TraceStep.step and in the returned Weighting.

The kernel vector w is unique up to scale: it ends at the first column j
of the window that depends on the columns before it. TraceStep.step is
t*|w[j]|, the step length along d = w/|w[j]|: the kernel vector with its
first free variable set to 1 and later ones to 0, then negated if needed
so that its first nonzero entry is positive.
"""

from __future__ import annotations

import heapq
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
_CANDIDATE = 1
_IN_WINDOW = 2


@dataclass(frozen=True)
class TraceStep:
    """One kernel-walk iteration.

    n_constrained: the size of the whole constrained set (vertices of
    fractional degree above the rank) before the step, not only the
    window's rows. n_frac: the number of all fractional edges before the
    step, not only the window's. step: t*|w[j]|, the step length along the
    kernel vector whose first free variable is 1 (see the module
    docstring). fixed: the edges the step landed on 0 or 1, ascending.
    """

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
    rows; an update that scales a row, or subtracts a multiple other than
    +-1 of the pivot row, is followed by dividing the row by the gcd of its
    entries. The first column j where no remaining row is nonzero depends
    on columns 0..j-1, which are independent, so the returned w (length
    len(holders), w[j] != 0, zero past j, with sum_c w[c] * column c = 0)
    is unique up to scale; it is made primitive with its first nonzero
    entry positive.
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
            pu = 1
            if p != 1:
                g = gcd(p, a)
                pu, a = p // g, a // g
                # the row may change sign, so a pivot of -1 scales nothing
                if pu < 0:
                    pu, a = -pu, -a
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
            # adding or subtracting the pivot row grows the entries by at
            # most a sum; any other update may multiply them, so it is
            # followed by a division by the gcd of the row's entries
            if pu != 1 or (a != 1 and a != -1):
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


def _pop_candidate(buckets: list[list[int]], state: list[int], n_out: list[int]) -> int:
    """Pop and return the lowest id in the lowest bucket that holds a live
    candidate, or -1 when no bucket does. buckets[c] is a min-heap of edge
    ids that held c constrained members outside the rows when pushed; an
    entry whose edge is no longer a candidate, or whose count has moved on,
    is dropped on the way."""
    pop = heapq.heappop
    for c, heap in enumerate(buckets):
        while heap:
            e = pop(heap)
            if state[e] == _CANDIDATE and n_out[e] == c:
                return e
    return -1


def round_weights(h_graph: Hypergraph, z: Weighting) -> tuple[Weighting, RoundingTrace]:
    """Round z to a 0/1 weighting x with, at every vertex v,
    sum_z(v) - r < sum_x(v) < sum_z(v) + r (strict, exact rationals).

    Entries of z already in {0, 1} are returned unchanged. Each iteration
    solves on the kept window of the module docstring. The trace records,
    per kernel-walk iteration, the constrained-set size, the fractional
    edge count, the step length along the kernel vector whose first free
    variable is 1, and the edges fixed (see TraceStep).
    """
    m = len(h_graph.edges)
    if len(z) != m:
        raise ValueError(f"weighting has {len(z)} entries for {m} edges")
    r = h_graph.rank()
    edges = h_graph.edges
    incidence = h_graph.incidence()
    gcd = math.gcd
    push = heapq.heappush
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
    # each constrained vertex (fractional degree above r) maps to the set of
    # its fractional edges; it leaves when that set shrinks to r
    constrained: dict[int, set[int]] = {}
    for v, inc in enumerate(incidence):
        mine = {e for e in inc if x[e] is None}
        if len(mine) > r:
            constrained[v] = mine
    # state[e] is _IN_WINDOW for a window edge, _CANDIDATE for a fractional
    # edge outside the window with a constrained member, and 0 otherwise; an
    # edge at 0 stays there, as the constrained set only shrinks. n_out[e]
    # counts e's constrained members outside the rows, and buckets[c] holds
    # every candidate with n_out c (see _pop_candidate).
    state = [0] * m
    n_out = [0] * m
    buckets: list[list[int]] = [[] for _ in range(r + 1)]
    live = constrained.keys()  # a view: it follows the deletions below
    for e in frac:
        c = len(live & edges[e])
        if c:
            state[e] = _CANDIDATE
            n_out[e] = c
            buckets[c].append(e)  # ascending, so already a heap
    window: set[int] = set()
    # window edges at each constrained vertex; the rows are the vertices
    # where it is positive
    in_rows = [0] * h_graph.n_vertices
    n_rows = 0
    n_frac = len(frac)

    steps: list[TraceStep] = []
    while constrained:
        while len(window) <= n_rows:
            e = _pop_candidate(buckets, state, n_out)
            if e < 0:
                raise InvariantBreach(
                    "window growth ran out of candidate edges",
                    rows=n_rows,
                    cols=len(window),
                )
            state[e] = _IN_WINDOW
            window.add(e)
            for v in edges[e]:
                if v in constrained:
                    in_rows[v] += 1
                    if in_rows[v] == 1:
                        n_rows += 1
                        for f in constrained[v]:
                            if state[f] == _CANDIDATE:
                                n_out[f] -= 1
                                push(buckets[n_out[f]], f)
        # the window has more columns than its rows, so it holds a
        # dependent column, and a kernel vector on the window vanishes on
        # every constrained row outside it
        cols = sorted(window)
        rows: dict[int, dict[int, int]] = {}
        holders: list[set] = []
        for c, e in enumerate(cols):
            hold = live & edges[e]
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
        s = len(constrained)
        fixed_now = []
        for idx in hits:
            e = cols[idx]
            x[e] = _ONE if w[idx] > 0 else _ZERO
            fixed_now.append(e)
            state[e] = 0
            window.discard(e)
            for v in edges[e]:
                mine = constrained.get(v)
                if mine is None:
                    continue
                # v is a row, since e was a window edge
                mine.discard(e)
                if len(mine) == r:
                    # v leaves the constrained set and the rows; an edge
                    # left with no constrained member leaves the window or
                    # the candidates for good
                    del constrained[v]
                    n_rows -= 1
                    for f in mine:
                        if live.isdisjoint(edges[f]):
                            if state[f] == _IN_WINDOW:
                                window.discard(f)
                            state[f] = 0
                else:
                    in_rows[v] -= 1
                    if not in_rows[v]:
                        n_rows -= 1
                        for f in mine:
                            if state[f] == _CANDIDATE:
                                n_out[f] += 1
                                push(buckets[n_out[f]], f)
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
        steps.append(TraceStep(s, n_frac, step, tuple(fixed_now)))
        n_frac -= len(fixed_now)

    frac = [e for e in frac if x[e] is None]
    for e, val in _finalize_low_degree(h_graph, frac, num, den).items():
        x[e] = val
    return Weighting(x), RoundingTrace(tuple(steps))
