"""Majority colouring of linear hypergraphs via vertex splitting.

For a linear hypergraph (no two edges share more than one vertex) with
minimum degree at least k^2 - k, a kr+1 palette suffices where r is the
rank. The route:

  1. Split every vertex u into t_u = floor(d(u)/k) sub-vertices, the
     first m_u = d(u) mod k of degree k+1 and the rest of degree k.
     The resulting hypergraph H* has max degree k+1 and stays linear.
  2. Colour the line graph of H*, whose max degree is at most kr,
     first-fit in ascending edge order, with at most kr+1 colours.
  3. Read the colours back as edge colours of H (the split leaves edge
     ids untouched). No colour repeats at a sub-vertex, so at each
     original vertex u a colour appears at most t_u times.

colour_linear does steps 2 and 3 in one pass in ascending edge order,
with a cursor per vertex u instead of H* or the line graph. Block j of
u is the incidence of one sub-vertex, and since the dealing cuts u's
ascending incidence into consecutive runs, the cursor needs only the
block lengths: the edges left in u's current block, a bit mask of the
colours that block already holds, and the lengths still to come. An
edge e takes the lowest colour missing from the OR of its vertices'
masks; the blocks of e hold only earlier edges at that point, so this
is exactly the set first-fit on the line graph reads. split_hypergraph,
line_graph and greedy_colour stay public as the reference construction
of the same route, and the CLI's --emit-split prints split_hypergraph's
blocks.

Both entry points certify the split by one rule, the one the majority
bound uses: each vertex's blocks are consecutive runs of k or k+1 edges
that cover its ascending incidence. It is checked in bulk on the block
lengths against the degrees; split_hypergraph, the one caller that hands
out block contents, also compares the concatenated blocks with the
concatenated incidence. On a linear input the rule is enough: u has at
most floor(d(u)/k) blocks of at most k+1 edges each, every edge gets
one sub-vertex per vertex (so sizes and the rank are kept), and two
edges sharing two sub-vertices would share two vertices, so H* is
linear. colour_linear's cursor reads only the lengths, so its check
stops there; it also checks the line-graph degree against
rank * (largest block - 1) and the colours against the palette.

Determinism: incident edges are dealt to sub-vertices in ascending
edge-id order, and first-fit also runs in ascending edge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from .errors import InvariantBreach, PreconditionError
from .hypercore import Colouring, Hypergraph

__all__ = [
    "VertexSplit",
    "LineGraph",
    "split_hypergraph",
    "line_graph",
    "greedy_colour",
    "colour_linear",
]


@dataclass(frozen=True)
class VertexSplit:
    """How one vertex splits: blocks[j] lists the edge ids handled by
    sub-vertex j. The first m blocks have k+1 edges, the remaining
    t - m have k."""

    m: int
    t: int
    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
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
    """The split's preconditions: k >= 2, a linear input and minimum
    degree at least k^2 - k."""
    if k < 2:
        raise PreconditionError(f"k must be at least 2, got {k}")
    witness = h_graph.linearity_witness()
    if witness is not None:
        raise PreconditionError(
            f"input is not linear: edges {witness[0] + 1} and {witness[1] + 1}"
            " share two or more vertices"
        )
    delta = min(h_graph.degrees(), default=k * k - k)
    if delta < k * k - k:
        raise PreconditionError(
            f"min degree {delta} below k^2 - k = {k * k - k} for k = {k}"
        )


def _certify_runs(
    h_graph: Hypergraph,
    k: int,
    lengths: list[tuple[int, ...]],
    blocks: list[tuple[tuple[int, ...], ...]] | None = None,
) -> None:
    """The split's one certificate, the rule the majority bound rests on:
    each vertex's blocks are consecutive runs of k or k+1 edges that cover
    its ascending incidence. lengths[u] are the lengths of u's blocks and
    blocks[u], when given, the blocks themselves. The rule is checked in
    bulk; only a failure goes vertex by vertex, to name the first vertex
    that breaks it."""
    degrees = h_graph.degrees()
    incidence = h_graph.incidence()

    def hold(us: slice) -> bool:
        sizes = list(chain.from_iterable(lengths[us]))
        return (
            k <= min(sizes, default=k)
            and max(sizes, default=k) <= k + 1
            and tuple(map(sum, lengths[us])) == degrees[us]
            and (
                blocks is None
                or list(chain.from_iterable(chain.from_iterable(blocks[us])))
                == list(chain.from_iterable(incidence[us]))
            )
        )

    if not hold(slice(None)):
        u = next(u for u in range(len(lengths)) if not hold(slice(u, u + 1)))
        raise InvariantBreach(
            "split blocks are not runs of k or k+1 edges covering the incidence",
            vertex=u,
            block_sizes=lengths[u],
            degree=degrees[u],
        )


def split_hypergraph(
    h_graph: Hypergraph, k: int
) -> tuple[Hypergraph, tuple[VertexSplit, ...]]:
    """Replace each vertex by its sub-vertices; every edge keeps its id
    and size, with each endpoint swapped for the sub-vertex it was dealt
    to. The result has max degree at most k+1 and is again linear.

    Returns H* and one VertexSplit per vertex. Sub-vertices are numbered
    vertex by vertex, so sub-vertex j of u has global id j plus the t of
    all vertices before u."""
    _check_splittable(h_graph, k)
    splits = [_deal(incident, k) for incident in h_graph.incidence()]
    blocks = [split.blocks for split in splits]
    lengths = [tuple(map(len, bs)) for bs in blocks]
    _certify_runs(h_graph, k, lengths, blocks)
    # H* needs no validation: certified runs give every edge one distinct
    # sub-vertex per vertex, and the input is linear, so H* is
    members: list[list[int]] = [[] for _ in h_graph.edges]
    for s, block in enumerate(chain.from_iterable(blocks)):
        for e in block:
            members[e].append(s)
    h_star = Hypergraph._trusted(sum(map(len, lengths)), [frozenset(ms) for ms in members])
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
    edges: tuple[frozenset[int], ...], lengths: list[tuple[int, ...]]
) -> tuple[list[int], int]:
    """greedy_colour(line_graph(H*)) for the H* whose sub-vertices are
    runs of each vertex's ascending incidence, lengths[u] long.

    One pass in ascending edge order with a cursor per vertex u: the
    edges left in its current block, a bit mask of the colours that block
    already holds (bit c - 1 for colour c) and an iterator over the block
    lengths still to come. The blocks of e hold only earlier edges, so
    the OR of their masks is the set first-fit reads, and e takes its
    lowest clear bit. Returns the colours and the line graph's max degree:
    sum(block length - 1) over e's blocks is |N(e)| - 1 when H* is linear,
    N(e) being the edges sharing a sub-vertex with e, e included."""
    coming = list(map(iter, lengths))
    size = [next(it, 0) for it in coming]
    left = size[:]
    mask = [0] * len(lengths)
    colours = [0] * len(edges)
    top = 0
    for e, fs in enumerate(edges):
        used = 0
        degree = -len(fs)
        for u in fs:
            used |= mask[u]
            degree += size[u]
        bit = ~used & (used + 1)
        colours[e] = bit.bit_length()
        if degree > top:
            top = degree
        for u in fs:
            n = left[u] - 1
            if n:
                left[u] = n
                mask[u] |= bit
            else:
                left[u] = size[u] = next(coming[u], 0)
                mask[u] = 0
    return colours, top


def colour_linear(h_graph: Hypergraph, k: int) -> Colouring:
    """Colouring with palette k*rank+1 in which every vertex u sees each
    colour at most floor(d(u)/k) times. Input must be linear with
    minimum degree at least k^2 - k."""
    _check_splittable(h_graph, k)
    lengths = [tuple(map(len, _deal(incident, k).blocks)) for incident in h_graph.incidence()]
    _certify_runs(h_graph, k, lengths)
    colours, degree = _cursor_fit(h_graph.edges, lengths)
    rank = h_graph.rank()
    if h_graph.edges:
        # the split keeps the rank, and H*'s max degree is the largest block
        cap = rank * (max(chain.from_iterable(lengths)) - 1)
        if degree > cap:
            raise InvariantBreach(
                "line graph degree exceeded its cap", max_degree=degree, cap=cap
            )
    palette = k * rank + 1
    top = max(colours, default=0)
    if top > palette:
        raise InvariantBreach(
            "greedy colouring exceeded the k*rank+1 palette", colour=top, palette=palette
        )
    return Colouring(colours, palette)
