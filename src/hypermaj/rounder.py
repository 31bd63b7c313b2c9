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
  3. The step length is the largest t with h + t*d still inside [0, 1].
     An edge is fixed when its exact weight becomes an integer, which at
     that t happens exactly to the components that land on 0 or 1.
  4. Once no vertex is constrained, each remaining fractional edge rounds
     to the nearer integer (ties up). A vertex that left the constrained
     set has at most r fractional edges, each moving by strictly less
     than 1, which gives the strict discrepancy bound.

Any kernel vector will do. Two fractional edges are twins when they have
the same non-empty set of constrained members; then e_a - e_b vanishes on
every constrained row, and that step costs O(1). So before each iteration,
if any twins exist, the walk steps along e_a - e_b, with a the lowest
fractional edge id that has a twin and b the lowest of a's twins. A twin
index finds the pair: a map from each set of constrained members to its
edges, in ascending order, with a min-heap of the heads of the groups of two
or more. It changes only when an edge is fixed or a vertex leaves the
constrained set, and heap entries that no longer head such a group are
dropped when they come up.

Otherwise the kernel vector is found on a small window of columns. A kernel
vector supported on a set W of fractional edges only has to vanish on the
rows R that W touches, and it exists once |W| > |R|. The
window is such a W: each of its edges has a constrained member, and R is
the set of constrained vertices it touches. It is kept from one iteration
to the next. After each step the fixed edges leave it, and so does any
edge with no constrained member left. Then, while |W| <= |R|, it grows by
the candidate edge (fractional, outside W, with a constrained member) that
brings the fewest constrained vertices not yet in R, ties to the lowest
edge id. A candidate always exists: every constrained vertex has at least
r+1 fractional edges, each edge covers at most r rows, so once every
candidate is in W, |W| > |R|. No two window edges are twins when it is
solved, so its kernel vectors move at least three edges.

Growth costs no rescan. One min-heap holds each candidate e as the int
c*m + e, with m the edge count and c the count of e's constrained members
outside R, so it pops the fewest new rows first, ties to the lowest id. A
count changes only when a row joins or leaves R, or when a vertex leaves
the constrained set, and then only at that vertex's edges, so each such
change costs O(degree). Heap entries whose count has moved on are dropped
when they come up.

There is one step path. A twin step hands _step the pair and the direction
(1, -1); a window step hands it the support of its kernel vector, the
window edges where it is nonzero. Both then share the weight update and the
code that retires the fixed edges from the window, the candidates, the twin
index and the constrained set.

All arithmetic is exact, and the walk's is integer. The kernel comes from
a sparse fraction-free elimination of the window's integer incidence rows
in column order (W in ascending edge id), with a row divided by the gcd of
its entries after any update that could multiply them, followed by an
integer back-substitution. The walk keeps each weight only as a reduced
numerator/denominator pair, so an edge is fractional exactly while its
denominator exceeds 1, and steps along the integer kernel vector w by a
step length t that is also a pair; the leftovers are rounded in those
pairs. The walk is the integer core _walk: num/den lists in, the 0/1
numerators and one plain tuple per iteration out. The partition colourer
calls it directly; round_weights wraps it, building Fractions only from the
input Weighting, for TraceStep.step and for the returned Weighting, and
checks the bound of step 4 at every vertex of the result.

The window's kernel vector w is unique up to scale: it ends at the first
column j of the window that depends on the columns before it.
TraceStep.step is t*|w[j]|, the step length along d = w/|w[j]|: the kernel
vector with its first free variable set to 1 and later ones to 0, then
negated if needed so that its first nonzero entry is positive. For a twin
step d = e_a - e_b, and TraceStep.step is t.
"""

from __future__ import annotations

import bisect
import heapq
import math
from fractions import Fraction
from typing import Hashable, Sequence

from ._record import frozen_record
from .errors import InvariantBreach
from .hypercore import Hypergraph, Weighting

__all__ = [
    "TraceStep",
    "RoundingTrace",
    "round_weights",
]


@frozen_record
class TraceStep:
    """One kernel-walk iteration.

    n_constrained: the size of the whole constrained set (vertices of
    fractional degree above the rank) before the step, not only the
    window's rows. n_frac: the number of all fractional edges before the
    step, not only the window's. step: t*|w[j]|, the step length along the
    kernel vector whose first free variable is 1 (see the module
    docstring). fixed: the edges whose exact weight the step made an
    integer (0 or 1), ascending.
    """

    n_constrained: int
    n_frac: int
    step: Fraction
    fixed: tuple[int, ...]


@frozen_record
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
) -> tuple[int, int]:
    """Largest t = t_num/t_den > 0 with h + t*dirs inside [0, 1], where
    h[i] = nums[i]/dens[i] with dens[i] > 0.

    The bound of each moving component is kept as num/den with den > 0 and
    compared by cross-multiplication; t is not reduced. Components with
    dirs = 0 never move; every h must be strictly interior.
    """
    t_num, t_den = 0, 0
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
    if not t_den:
        raise InvariantBreach("kernel vector has no movable component")
    return t_num, t_den


def _finalize_low_degree(
    h_graph: Hypergraph, frac: Sequence[int], num: list[int], den: list[int]
) -> None:
    """Round the leftover fractional edges frac, edge e of weight
    num[e]/den[e], to the nearer integer (ties up), in place: num[e]
    becomes 0 or 1 and den[e] 1.

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
    for e in frac:
        num[e] = 1 if 2 * num[e] >= den[e] else 0
        den[e] = 1


def _pop_candidate(
    grow: list[int], key: list[frozenset | None], window: set[int], n_out: list[int]
) -> int:
    """Pop and return the candidate e with the lowest n_out[e], ties to the
    lowest id, or -1 when there is none. grow is a min-heap of entries
    c * m + e, m = len(key), for an edge e that held c constrained members
    outside the rows when pushed; an entry whose edge is no longer a
    candidate, or whose count has moved on, is dropped on the way."""
    m = len(key)
    while grow:
        c, e = divmod(heapq.heappop(grow), m)
        if n_out[e] == c and key[e] is not None and e not in window:
            return e
    return -1


def _file(groups: dict[frozenset, list[int]], twins: list[int], key: frozenset, e: int) -> None:
    """File edge e under key in the twin index: groups[key] lists its edges
    ascending, and the head of a group of two or more goes on the heap twins."""
    g = groups.get(key)
    if g is None:
        groups[key] = [e]
    else:
        bisect.insort(g, e)
        heapq.heappush(twins, g[0])


def _unfile(groups: dict[frozenset, list[int]], twins: list[int], key: frozenset, e: int) -> None:
    """Take edge e out of groups[key]; a new head of a group of two or more
    goes on the heap twins."""
    g = groups[key]
    i = g.index(e)
    del g[i]
    if not g:
        del groups[key]
    elif not i and len(g) > 1:
        heapq.heappush(twins, g[0])


def _walk(
    h_graph: Hypergraph, num: list[int], den: list[int]
) -> tuple[list[int], list[tuple[int, int, int, int, tuple[int, ...]]]]:
    """The kernel walk of the module docstring on integer pairs.

    Edge e's weight is the reduced pair num[e]/den[e], den[e] > 0, and both
    lists are consumed. Returns num, which then holds the 0/1 rounding, and
    one (n_constrained, n_frac, step_num, step_den, fixed) tuple per
    iteration: the fields of TraceStep, with its step as a pair that need
    not be reduced.
    """
    m = len(num)
    r = h_graph.rank()
    edges = h_graph.edges
    incidence = h_graph.incidence()
    gcd = math.gcd
    push = heapq.heappush
    heappop = heapq.heappop
    # edge e is fractional exactly while den[e] > 1; fd[v] counts the
    # fractional edges at v, and v is constrained (in live) while fd[v] > r
    fd = [sum([den[e] > 1 for e in inc]) for inc in incidence]
    live = {v for v, d in enumerate(fd) if d > r}
    # the twin index: key[e] is the set of e's constrained members while e
    # is fractional and has one, else None; groups and twins as in _file.
    # The candidates are the edges with a key outside the window; n_out[e]
    # counts a candidate's constrained members outside the rows, and grow
    # holds n_out[e] * m + e for each of them (see _pop_candidate)
    key: list[frozenset | None] = [None] * m
    groups: dict[frozenset, list[int]] = {}
    twins: list[int] = []
    n_out = [0] * m
    grow: list[int] = []
    n_frac = 0
    for e in range(m):
        if den[e] > 1:
            n_frac += 1
            mem = live & edges[e]
            c = len(mem)
            if c:
                n_out[e] = c
                grow.append(c * m + e)
                key[e] = edges[e] if c == len(edges[e]) else frozenset(mem)
                _file(groups, twins, key[e], e)
    heapq.heapify(grow)
    window: set[int] = set()
    # window edges at each constrained vertex; the rows are the vertices
    # where it is positive
    in_rows = [0] * h_graph.n_vertices
    n_rows = 0

    steps = []
    while live:
        # the lowest edge with a twin heads its group; heap entries that no
        # longer head a group of two or more are dropped
        while twins:
            a = twins[0]
            g = groups.get(key[a])
            if g is not None and g[0] == a and len(g) > 1:
                break
            heappop(twins)
        if twins:
            # e_a - e_b vanishes on every constrained row
            support, dirs, scale = g[:2], (1, -1), 1
        else:
            while len(window) <= n_rows:
                e = _pop_candidate(grow, key, window, n_out)
                if e < 0:
                    raise InvariantBreach(
                        "window growth ran out of candidate edges",
                        rows=n_rows,
                        cols=len(window),
                    )
                window.add(e)
                for v in edges[e]:
                    if v in live:
                        in_rows[v] += 1
                        if in_rows[v] == 1:
                            n_rows += 1
                            for f in incidence[v]:
                                if key[f] is not None and f not in window:
                                    n_out[f] -= 1
                                    push(grow, n_out[f] * m + f)
            # the window has more columns than its rows, so it holds a
            # dependent column, and a kernel vector on the window vanishes
            # on every constrained row outside it
            cols = sorted(window)
            rows: dict[int, dict[int, int]] = {}
            holders: list[set] = []
            for c, e in enumerate(cols):
                hold = set(key[e])
                holders.append(hold)
                for v in hold:
                    if v in rows:
                        rows[v][c] = 1
                    else:
                        rows[v] = {c: 1}
            w, j = _first_dependent(rows, holders)
            support = [e for e, we in zip(cols, w) if we]
            dirs = [we for we in w if we]
            # the trace's step is along d = w / |w[j]|, whose first free
            # variable is +-1, so it is t * |w[j]|
            scale = abs(w[j])
        tn, tq = _step([num[e] for e in support], [den[e] for e in support], dirs)
        g = gcd(tn, tq)
        tn, tq = tn // g, tq // g
        # h + t*w over one common denominator, reduced; the edges at the
        # bound t land exactly on 0 or 1, and they are the ones fixed
        fixed_now = []
        for e, we in zip(support, dirs):
            hq = den[e]
            a, b = num[e] * tq + tn * we * hq, hq * tq
            g = gcd(a, b)
            num[e], den[e] = a // g, b // g
            if den[e] == 1:
                fixed_now.append(e)
        if not fixed_now:
            raise InvariantBreach("kernel step fixed no edge", cols=len(support))
        s = len(live)
        for e in fixed_now:
            _unfile(groups, twins, key[e], e)
            key[e] = None
        for e in fixed_now:
            in_window = e in window
            if in_window:
                window.remove(e)
            for v in edges[e]:
                if v not in live:
                    continue
                fd[v] -= 1
                if fd[v] == r:
                    # v leaves the constrained set, and the rows if it is
                    # one; each edge at v loses v from its key, and one
                    # left with no constrained member leaves the window or
                    # the candidates for good
                    live.remove(v)
                    is_row = in_rows[v] > 0
                    if is_row:
                        n_rows -= 1
                    for f in incidence[v]:
                        old = key[f]
                        if old is None:
                            continue  # integral, or fixed by this step
                        _unfile(groups, twins, old, f)
                        k = old.difference((v,))
                        if k:
                            key[f] = k
                            _file(groups, twins, k, f)
                            if not is_row and f not in window:
                                n_out[f] -= 1
                                push(grow, n_out[f] * m + f)
                        else:
                            key[f] = None
                            window.discard(f)
                elif in_window:
                    in_rows[v] -= 1
                    if not in_rows[v]:
                        n_rows -= 1
                        for f in incidence[v]:
                            if key[f] is not None and f not in window:
                                n_out[f] += 1
                                push(grow, n_out[f] * m + f)
        steps.append((s, n_frac, tn * scale, tq, tuple(fixed_now)))
        n_frac -= len(fixed_now)

    _finalize_low_degree(h_graph, [e for e in range(m) if den[e] > 1], num, den)
    return num, steps


def _check_band(h_graph: Hypergraph, ws: Sequence[Fraction], bits: Sequence[int]) -> None:
    """Raise InvariantBreach unless |sum_x(v) - sum_z(v)| < r at every
    vertex v, for z the weights ws and x the 0/1 list bits; each vertex's
    sums are compared in integers over the lcm of its weights'
    denominators."""
    r = h_graph.rank()
    for v, inc in enumerate(h_graph.incidence()):
        if not inc:
            continue
        q = math.lcm(*[ws[e].denominator for e in inc])
        gap = q * sum([bits[e] for e in inc]) - sum(
            [ws[e].numerator * (q // ws[e].denominator) for e in inc]
        )
        if not -r * q < gap < r * q:
            raise InvariantBreach(
                "rounded sum left the rank band",
                vertex=v,
                gap=Fraction(gap, q),
                rank=r,
            )


def round_weights(h_graph: Hypergraph, z: Weighting) -> tuple[Weighting, RoundingTrace]:
    """Round z to a 0/1 weighting x with, at every vertex v,
    sum_z(v) - r < sum_x(v) < sum_z(v) + r (strict, exact rationals).

    Entries of z already in {0, 1} are returned unchanged. The walk is the
    integer core _walk; its output is checked against the bound above at
    every vertex, and a breach raises InvariantBreach. The trace records,
    per kernel-walk iteration, the constrained-set size, the fractional
    edge count, the step length along the kernel vector whose first free
    variable is 1, and the edges fixed (see TraceStep).
    """
    m = len(h_graph.edges)
    if len(z) != m:
        raise ValueError(f"weighting has {len(z)} entries for {m} edges")
    ws = list(z)
    bits, steps = _walk(h_graph, [w.numerator for w in ws], [w.denominator for w in ws])
    _check_band(h_graph, ws, bits)
    one = (Fraction(0), Fraction(1))
    trace = RoundingTrace(
        tuple([TraceStep(s, nf, Fraction(sn, sq), fixed) for s, nf, sn, sq, fixed in steps])
    )
    return Weighting([one[b] for b in bits]), trace
