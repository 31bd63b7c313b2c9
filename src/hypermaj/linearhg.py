"""Majority colouring by vertex splitting, for any hypergraph with
minimum degree at least k^2 - k.

With r the rank, a kr+1 palette suffices. The route:

  1. Split every vertex u into t_u = floor(d(u)/k) sub-vertices, the
     first m_u = d(u) mod k of degree k+1 and the rest of degree k.
     The resulting hypergraph H* has max degree k+1 and the edges of H,
     each with one sub-vertex in place of each of its vertices.
  2. Colour the line graph of H* first-fit in ascending edge order.
  3. Read the colours back as edge colours of H (the split leaves edge
     ids untouched).

Neither bound needs H to be linear:

  - Majority. The edges of one block of u meet at one sub-vertex, so
    first-fit gives them distinct colours, and u has t_u blocks: a
    colour appears at most floor(d(u)/k) times at u.
  - Palette. When e is coloured, each of its |e| blocks holds at most k
    other edges, so at most |e|k colours are taken and e gets a colour
    of at most |e|k + 1 <= kr + 1. Two edges that share two vertices
    only make the set of taken colours smaller than that count.

Linearity matters only to H*: two edges sharing two sub-vertices share
two vertices, so H* is linear when H is.

colour_linear does steps 2 and 3 in one pass in ascending edge order,
with a cursor per vertex u instead of H* or the line graph. Block j of
u is the incidence of one sub-vertex, a run of u's ascending incidence
whose length follows from d(u) and k alone, so the cursor holds the
edges left in u's current block, the runs of k+1 edges not yet
finished, and a bit mask of the colours the block already holds. An
edge e takes the lowest colour missing from the OR of its vertices'
masks; the blocks of e hold only earlier edges at that point, so this
is exactly the set first-fit on the line graph reads. split_hypergraph,
line_graph and greedy_colour build the same route step by step. Only
split_hypergraph is package API, and the CLI's --emit-split prints its
blocks; line_graph, greedy_colour and LineGraph are a module-level
reference that tests and the benchmark use.

Both entry points certify the rule the majority bound uses: each
vertex's blocks are consecutive runs of k or k+1 edges that cover its
ascending incidence. split_hypergraph checks the blocks it hands out in
bulk, their lengths against the degrees and their concatenation against
the incidence, so every edge gets one distinct sub-vertex per vertex
and keeps its size. The cursor makes only such runs, so colour_linear
checks that they came out even: every cursor ends on a block boundary
with no run of k+1 left. It also checks the colours against the palette.

Determinism: incident edges are dealt to sub-vertices in ascending
edge-id order, and first-fit also runs in ascending edge order.
"""

from __future__ import annotations

from itertools import chain, islice

from ._record import frozen_record
from .errors import InvariantBreach, PreconditionError
from .hypercore import Colouring, Hypergraph

__all__ = ["split_hypergraph", "colour_linear"]

_NOT_RUNS = "split blocks are not runs of k or k+1 edges covering the incidence"


@frozen_record
class VertexSplit:
    """How one vertex splits: blocks[j] lists the edge ids handled by
    sub-vertex j. The first m blocks have k+1 edges, the remaining
    t - m have k."""

    m: int
    t: int
    blocks: tuple[tuple[int, ...], ...]


@frozen_record
class LineGraph:
    """Nodes are hyperedge ids; two nodes are adjacent when their
    hyperedges share at least one vertex."""

    n_nodes: int
    neighbours: tuple[tuple[int, ...], ...]

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.neighbours), default=0)


def _deal(incident: tuple[int, ...], k: int) -> VertexSplit:
    """Deal a vertex's ascending incident edge ids into blocks: the
    first m = d mod k blocks take k+1 edges, the remaining t - m take k,
    where t = floor(d/k) for degree d; t >= m needs d >= k^2 - k."""
    t, m = divmod(len(incident), k)
    # zip over one shared iterator cuts consecutive runs: m of k+1, then
    # the d - m(k+1) = (t - m)k edges left in runs of k
    it = iter(incident)
    return VertexSplit(m, t, (*islice(zip(*[it] * (k + 1)), m), *zip(*[it] * k)))


def _check_splittable(h_graph: Hypergraph, k: int) -> None:
    """The split's preconditions: k >= 2 and minimum degree at least
    k^2 - k. The input need not be linear."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    delta = min(h_graph.degrees(), default=k * k - k)
    if delta < k * k - k:
        raise PreconditionError(
            f"min degree {delta} below k^2 - k = {k * k - k} for k = {k}"
        )


def _certify_runs(
    h_graph: Hypergraph, k: int, blocks: list[tuple[tuple[int, ...], ...]]
) -> None:
    """The split's certificate, the rule the majority bound rests on:
    each vertex's blocks are consecutive runs of k or k+1 edges that cover
    its ascending incidence; blocks[u] are the blocks of u. The rule is
    checked in bulk; only a failure goes vertex by vertex, to name the
    first vertex that breaks it."""
    degrees = h_graph.degrees()
    incidence = h_graph.incidence()
    lengths = [tuple(map(len, bs)) for bs in blocks]

    def hold(us: slice) -> bool:
        sizes = list(chain.from_iterable(lengths[us]))
        return (
            k <= min(sizes, default=k)
            and max(sizes, default=k) <= k + 1
            and tuple(map(sum, lengths[us])) == degrees[us]
            and list(chain.from_iterable(chain.from_iterable(blocks[us])))
            == list(chain.from_iterable(incidence[us]))
        )

    if not hold(slice(None)):
        u = next(u for u in range(len(lengths)) if not hold(slice(u, u + 1)))
        raise InvariantBreach(
            _NOT_RUNS, vertex=u, block_sizes=lengths[u], degree=degrees[u]
        )


def split_hypergraph(
    h_graph: Hypergraph, k: int
) -> tuple[Hypergraph, tuple[VertexSplit, ...]]:
    """Replace each vertex by its sub-vertices; every edge keeps its id
    and size, with each endpoint swapped for the sub-vertex it was dealt
    to. The result has max degree at most k+1, and it is linear when
    h_graph is.

    Returns H* and one VertexSplit per vertex. Sub-vertices are numbered
    vertex by vertex, so sub-vertex j of u has global id j plus the t of
    all vertices before u."""
    _check_splittable(h_graph, k)
    splits = [_deal(incident, k) for incident in h_graph.incidence()]
    blocks = [split.blocks for split in splits]
    _certify_runs(h_graph, k, blocks)
    # H* needs no validation: certified runs give every edge one distinct
    # in-range sub-vertex per vertex, so its edges are non-empty sets
    members: list[list[int]] = [[] for _ in h_graph.edges]
    for s, block in enumerate(chain.from_iterable(blocks)):
        for e in block:
            members[e].append(s)
    h_star = Hypergraph._trusted(sum(map(len, blocks)), [frozenset(ms) for ms in members])
    return h_star, tuple(splits)


def line_graph(h_star: Hypergraph) -> LineGraph:
    """Line graph of a hypergraph. The degree of any node is at most
    rank * (max_degree - 1), since each of its at most `rank` vertices
    contributes at most max_degree - 1 other edges."""
    m = len(h_star.edges)
    incidence = h_star.incidence()
    neighbours = []
    for e, fs in enumerate(h_star.edges):
        nb = {f for v in fs for f in incidence[v]}
        nb.discard(e)
        neighbours.append(tuple(sorted(nb)))
    lg = LineGraph(m, tuple(neighbours))
    if m:
        cap = h_star.rank() * max(h_star.max_degree() - 1, 0)
        top = lg.max_degree()
        if top > cap:
            raise InvariantBreach(
                "line graph degree exceeded its cap", max_degree=top, cap=cap
            )
    return lg


def greedy_colour(lg: LineGraph) -> tuple[int, ...]:
    """First-fit proper node colouring in ascending node order. Each node
    gets the smallest colour unused among its already-coloured
    neighbours, so no colour exceeds its degree + 1."""
    colours = [0] * lg.n_nodes
    for node in range(lg.n_nodes):
        used = {colours[nb] for nb in lg.neighbours[node] if colours[nb]}
        c = 1
        while c in used:
            c += 1
        colours[node] = c
    return tuple(colours)


def _cursor_fit(
    edges: tuple[frozenset[int], ...], degrees: tuple[int, ...], k: int
) -> list[int]:
    """greedy_colour(line_graph(H*)) for the H* of split_hypergraph.

    One pass in ascending edge order with a cursor per vertex u: the
    edges left in its current block, the runs of k+1 not yet finished
    (d(u) mod k at first) and a bit mask of the colours the block already
    holds (bit c - 1 for colour c). The blocks of e hold only earlier
    edges, so the OR of their masks is the set first-fit reads, and e
    takes its lowest clear bit. A cursor that ends inside a block or with
    a run of k+1 left, as d(u) < k^2 - k can leave it, is a breach."""
    runs = [d % k for d in degrees]
    left = [k + 1 if m else k for m in runs]
    mask = [0] * len(degrees)
    colours = [0] * len(edges)
    for e, fs in enumerate(edges):
        used = 0
        for u in fs:
            used |= mask[u]
        bit = ~used & (used + 1)
        colours[e] = bit.bit_length()
        for u in fs:
            n = left[u] - 1
            if n:
                left[u] = n
                mask[u] |= bit
            else:
                mask[u] = 0
                if runs[u]:
                    runs[u] -= 1
                left[u] = k + 1 if runs[u] else k
    if any(mask) or any(runs):
        u = next(u for u, m in enumerate(runs) if m or mask[u])
        raise InvariantBreach(_NOT_RUNS, vertex=u, degree=degrees[u])
    return colours


def colour_linear(h_graph: Hypergraph, k: int) -> Colouring:
    """Colouring with palette k*rank+1 in which every vertex u sees each
    colour at most floor(d(u)/k) times. Input needs k >= 2 and minimum
    degree at least k^2 - k; it need not be linear."""
    _check_splittable(h_graph, k)
    colours = _cursor_fit(h_graph.edges, h_graph.degrees(), k)
    palette = k * h_graph.rank() + 1
    top = max(colours, default=0)
    if top > palette:
        raise InvariantBreach(
            "greedy colouring exceeded the k*rank+1 palette", colour=top, palette=palette
        )
    return Colouring(colours, palette)
